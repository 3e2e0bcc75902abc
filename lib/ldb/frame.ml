(** The machine-independent stack-frame abstraction (Sec. 4).

    A frame carries the program counter, the frame base (the virtual frame
    pointer on SIM-MIPS, the frame pointer elsewhere), and the abstract
    memory DAG of Fig. 4 through which every register and memory access for
    that activation travels.  Machine-dependent instances supply only the
    two methods the paper calls out: one that walks down the stack and one
    that builds the next frame's memory (register restoration is expressed
    as the alias table of the next frame). *)

open Ldb_machine
module A = Ldb_amemory.Amemory
module V = Ldb_pscript.Value

(** Per-procedure information the walkers need, from the symbol table
    (frame size, register-variable save slots). *)
type proc_info = {
  pi_frame_size : int;
  pi_ra_offset : int;
  pi_saved_regs : (int * int) list;
}

(** Everything a machine-dependent walker may consult.  A procedure is
    named by its symbol-table entry; each frame resolves its pc to one
    once, and every later question about the frame reuses the answer. *)
type query = {
  q_target : Target.t;
  q_wire : A.t;
  q_frame_size : pc:int -> int option;  (** SIM-MIPS: the RPT via the linker interface *)
  q_proc : pc:int -> V.t option;  (** the procedure containing [pc] *)
  q_caller : pc:int -> V.t option;
      (** the same for a return address; [None] ends the walk (the
          startup stub, or code without a symbol-table entry) *)
  q_proc_info : V.t -> proc_info;  (** decoded once per procedure *)
}

(** A frame's alias table.  The top frame's maps every register to its
    save slot in the stopped context.  A caller's holds only what its
    frame changes, over its callee's table: a lookup the caller's entries
    do not answer falls through, so untouched callee-saved registers keep
    the aliases of the called frame (the paper's alias reuse) and no walk
    copies a table.  A caller's entries are keyed by {!key}. *)
type aliases =
  | Context of (char * int, A.location) Hashtbl.t
  | Alias of { key : int; loc : A.location; under : aliases }

type t = {
  fr_pc : int;
  fr_base : int;  (** vfp / fp value: FrameBase for the PostScript world *)
  fr_sp : int;
  fr_level : int;
  fr_mem : A.t;  (** the joined memory presented to the rest of the debugger *)
  fr_proc : V.t option;  (** the procedure [fr_pc] lies in *)
  fr_down : unit -> t option;  (** machine-dependent stack walk *)
}

(* --- alias tables --------------------------------------------------------- *)

let key space n = (n lsl 8) lor Char.code space

let rec find_alias aliases k space n =
  match aliases with
  | Alias a -> if a.key = k then Some a.loc else find_alias a.under k space n
  | Context tbl -> Hashtbl.find_opt tbl (space, n)

(** [alias aliases space n loc]: [aliases] with register [space]/[n] now
    at [loc]. *)
let alias aliases space n loc = Alias { key = key space n; loc; under = aliases }

(* --- shared DAG construction (Fig. 4) ---------------------------------- *)

(* the register memory's spaces depend only on the float width, so every
   frame shares one list *)
let reg_spaces w = [ ('r', A.Int_reg 4); ('x', A.Int_reg 4); ('f', A.Float_reg w) ]
let reg_spaces_8 = reg_spaces 8
let reg_spaces_10 = reg_spaces 10

(** Build wire -> alias -> register -> joined for a given alias table. *)
let build_dag (target : Target.t) (wire : A.t) aliases : A.t =
  let lookup space n = find_alias aliases (key space n) space n in
  let alias_mem = A.alias ~lookup wire in
  let spaces =
    match target.Target.ctx_freg_bytes with
    | 8 -> reg_spaces_8
    | 10 -> reg_spaces_10
    | w -> reg_spaces w
  in
  let reg_mem = A.register ~spaces alias_mem in
  A.joined ~routes:[ ('r', reg_mem); ('f', reg_mem); ('x', reg_mem) ] ~default:wire

(** Alias table for a stopped context: every register aliases its save
    slot in the context area (machine-dependent data; shared code). *)
let context_aliases (target : Target.t) ~ctx_addr : aliases =
  let tbl = Hashtbl.create 64 in
  for r = 0 to Target.nregs target - 1 do
    Hashtbl.replace tbl ('r', r) (A.absolute 'd' (ctx_addr + target.Target.ctx_reg_off r))
  done;
  for f = 0 to Target.nfregs target - 1 do
    Hashtbl.replace tbl ('f', f) (A.absolute 'd' (ctx_addr + target.Target.ctx_freg_off f))
  done;
  Hashtbl.replace tbl ('x', 0) (A.absolute 'd' (ctx_addr + target.Target.ctx_pc_off));
  Context tbl

(** A fresh immediate cell holding [v] (the low 32 bits). *)
let imm_i32 v =
  let cell = Bytes.create 4 in
  Bytes.set_int32_le cell 0 (Int32.of_int v);
  A.Immediate cell

(* --- typed access through a frame's memory ------------------------------ *)

(** The 32-bit word at [addr] in the target's data space, unsigned. *)
let fetch_word (q : query) addr = A.fetch_u32 q.q_wire (A.absolute 'd' addr)

let fetch_reg fr r = A.fetch_u32 fr.fr_mem (A.absolute 'r' r)

(** Frame size of the procedure at [pc] ([proc], resolved): from the
    runtime procedure table where the target keeps one (SIM-MIPS), else
    from the procedure's description, else 0. *)
let frame_size_at (q : query) ~pc (proc : V.t option) =
  match q.q_frame_size ~pc with
  | Some s -> s
  | None -> ( match proc with Some e -> (q.q_proc_info e).pi_frame_size | None -> 0)

(** Saved-register aliases: a register variable of the {e callee} was saved
    in the callee's frame, so in the caller's frame the register aliases
    that save slot. *)
let apply_saved_regs aliases ~callee_base (info : proc_info option) =
  match info with
  | None -> aliases
  | Some pi ->
      List.fold_left
        (fun a (r, off) -> alias a 'r' r (A.absolute 'd' (callee_base + off)))
        aliases pi.pi_saved_regs
