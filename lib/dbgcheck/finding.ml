(** dbgcheck findings: one record per violation of the debug contract,
    carrying the target, the check kind, and an address or file:line
    position (the issue's "each finding carrying target, check kind, and
    address or position").  The JSON shape is a contract, pinned by a
    golden test. *)

type kind =
  (* stopping points *)
  | Bad_nop          (** bytes at a stopping point are not the target's no-op *)
  | Misaligned_stop  (** stopping point is not on an instruction boundary *)
  | Nop_advance      (** decoded no-op width disagrees with [Target.nop_advance] *)
  | Bad_decode       (** code segment bytes the disassembler rejects *)
  (* symbols and anchors *)
  | Unresolved_sym   (** a name the loader table cannot resolve through nm *)
  | Bad_segment      (** an address outside the segment its kind demands *)
  | Alias_clash      (** two views of one symbol (or address) disagree *)
  | Dangling_slot    (** anchor slot index outside the anchor's data region *)
  (* frames *)
  | Frame_bounds     (** offset or size violating the frame layout *)
  | Bad_reg_var      (** register variable in a non-allocatable register *)
  | Rpt_mismatch     (** SIM-MIPS runtime procedure table disagrees *)
  (* differential: stabs view vs PostScript view *)
  | Stabs_mismatch   (** the two symbol tables disagree *)
  | Line_clamped     (** stabs u16 desc clamped a line the PS table keeps *)
  | Hint_mismatch    (** units-dict demand hints disagree with the forced unit *)
  (* breakpoint-condition bytecode *)
  | Bpc_verify      (** the static verifier's verdict on a seeded condition
                        program — pinned by a golden test so the safety
                        proof cannot drift silently *)
  (* core dumps *)
  | Core_arch       (** the dump names a different architecture than the image *)
  | Core_crc        (** a memory section's bytes do not checksum to its CRC *)
  | Core_reg_width  (** register-file shape disagrees with the architecture *)
  | Core_pc         (** the fault pc lies outside the image's code segment *)
  (* variable-validity ranges *)
  | Validity_missing        (** a local's ranges appear in one table only *)
  | Validity_range          (** malformed ranges: bad fact code, out-of-range
                                stop index, or gaps/overlaps in the cover *)
  | Validity_stabs_mismatch (** the two tables disagree on a local's ranges *)
  | Validity_unsound        (** recomputing the dataflow analysis from source
                                disagrees with what the tables claim *)
  (* the table itself could not be interpreted *)
  | Table_error

let kind_name = function
  | Bad_nop -> "bad-nop"
  | Misaligned_stop -> "misaligned-stop"
  | Nop_advance -> "nop-advance"
  | Bad_decode -> "bad-decode"
  | Unresolved_sym -> "unresolved-symbol"
  | Bad_segment -> "bad-segment"
  | Alias_clash -> "alias-clash"
  | Dangling_slot -> "dangling-slot"
  | Frame_bounds -> "frame-bounds"
  | Bad_reg_var -> "bad-reg-var"
  | Rpt_mismatch -> "rpt-mismatch"
  | Stabs_mismatch -> "stabs-mismatch"
  | Line_clamped -> "line-clamped"
  | Hint_mismatch -> "hint-mismatch"
  | Bpc_verify -> "bpcverify"
  | Core_arch -> "core-arch"
  | Core_crc -> "core-crc"
  | Core_reg_width -> "core-reg-width"
  | Core_pc -> "core-pc"
  | Validity_missing -> "validity-missing"
  | Validity_range -> "validity-range"
  | Validity_stabs_mismatch -> "validity-stabs-mismatch"
  | Validity_unsound -> "validity-unsound"
  | Table_error -> "table-error"

(** Every kind, in declaration order. *)
let kinds =
  [ Bad_nop; Misaligned_stop; Nop_advance; Bad_decode; Unresolved_sym; Bad_segment;
    Alias_clash; Dangling_slot; Frame_bounds; Bad_reg_var; Rpt_mismatch; Stabs_mismatch;
    Line_clamped; Hint_mismatch; Bpc_verify; Core_arch; Core_crc; Core_reg_width; Core_pc;
    Validity_missing; Validity_range; Validity_stabs_mismatch; Validity_unsound;
    Table_error ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) kinds

type t = {
  kind : kind;
  target : string;  (** architecture name *)
  where : string;   (** "0x%06x" address, "file:line", or a symbol name *)
  msg : string;
}

let at_addr addr = Printf.sprintf "0x%06x" addr
let at_pos file line = Printf.sprintf "%s:%d" file line

let to_string f = Printf.sprintf "%s: %s: %s: %s" f.target (kind_name f.kind) f.where f.msg

let to_json f =
  Printf.sprintf {|{"target":"%s","kind":"%s","where":"%s","msg":"%s"}|}
    (Ldb_util.Json.escape f.target) (kind_name f.kind) (Ldb_util.Json.escape f.where)
    (Ldb_util.Json.escape f.msg)
