(** dbgcheck: whole-artifact verification of the debug contract.

    The paper's debugger works because it can trust what the compiler and
    linker hand it: a no-op planted at every stopping point (Sec. 2), anchor
    symbols that make link-time values unnecessary, symbol tables that are
    executable data, and per-target frame conventions the stack walker
    relies on.  pslint (lib/pscheck) verifies the {e PostScript source}
    layer; this module verifies the {e binary artifacts} — the linked image,
    the anchor words, the stabs — and that the two symbol-table views agree.

    Four check families over a linked [Link.image] + its loader-table
    PostScript:

    - {b stops}: a full disassembly walk of the code segment establishes
      the instruction boundaries; every stopping point named by either
      symbol table must land on a boundary, hold exactly [Target.nop], and
      advance by [Target.nop_advance];
    - {b symbols}: every anchor/global/static resolves through [Link.Nm],
      lies in the right segment, and no two views of a symbol disagree;
    - {b frames}: frame sizes, local/parameter offsets, register variables
      and save slots respect the target's calling convention, including
      SIM-MIPS's no-frame-pointer runtime procedure table;
    - {b differential}: the stabs view and the PostScript view of each
      module agree on names, locations and line maps (and u16 line clamps
      in the stabs are reported rather than silently diverging). *)

open Ldb_machine
module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp
module Link = Ldb_link.Link
module Nm = Ldb_link.Nm
module F = Finding

exception Extract of string

(* --- the PostScript-table view ---------------------------------------------- *)

type where_view =
  | Wreg of int
  | Wframe of int
  | Wanchor of string * int
  | Wglobal of string
  | Wcode of string
  | Wnone

type sym_view = {
  sv_name : string;
  sv_kind : string;  (** "variable" | "parameter" | "procedure" *)
  sv_where : where_view;
  sv_file : string;
  sv_line : int;
  sv_validity : (int * int * int) list;
      (** decoded /validity ranges (lo, hi, fact); [] when absent *)
  sv_validity_bad : bool;
      (** a /validity key was present but did not decode to flat triples *)
}

type locus_view = { lv_line : int; lv_anchor : string; lv_idx : int }

type proc_view = {
  pv_sym : sym_view;
  pv_label : string option;  (** linker label, from the where procedure *)
  pv_framesize : int;
  pv_raoffset : int;
  pv_savedregs : (int * int) list;
  pv_loci : locus_view list;
  pv_locals : sym_view list;  (** uplink chains of every stopping point *)
}

type unit_view = {
  uv_file : string;
  uv_procs : proc_view list;
  uv_statics : sym_view list;
  uv_names : string list option;  (** demand hints from the units dict, when present *)
  uv_labels : string list;
  uv_lines : (int * int) option;  (** /minline, /maxline hint *)
}

type ps_view = {
  psv_anchors : string list;          (** /anchors of __symtab *)
  psv_units : unit_view list;
  psv_anchormap : (string * int) list;
  psv_proctable : (int * string) list;
  psv_globalmap : (string * int) list;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Extract s)) fmt

let name_of (v : V.t) =
  match v.V.v with V.Name s | V.Str s -> s | _ -> fail "expected a name"

let dget d k = V.dict_get d k
let dget_exn d k = match dget d k with Some v -> v | None -> fail "missing /%s" k

let parse_where (w : V.t option) : where_view =
  match w with
  | None -> Wnone
  | Some v -> (
      match v.V.v with
      | V.Loc (Ldb_amemory.Amemory.Absolute { space = 'r'; offset }) -> Wreg offset
      | V.Arr items ->
          (* stored procedures: {off FrameLoc} {(anchor) idx LazyData}
             {(label) GlobalLoc} {(label) GlobalCodeLoc} *)
          let op =
            Array.fold_left
              (fun acc (it : V.t) ->
                match it.V.v with V.Name n -> Some n | _ -> acc)
              None items
          in
          let first_int =
            Array.fold_left
              (fun acc (it : V.t) ->
                match (acc, it.V.v) with None, V.Int n -> Some n | _ -> acc)
              None items
          in
          let first_str =
            Array.fold_left
              (fun acc (it : V.t) ->
                match (acc, it.V.v) with None, V.Str s -> Some s | _ -> acc)
              None items
          in
          (match (op, first_str, first_int) with
          | Some "FrameLoc", _, Some off -> Wframe off
          | Some "LazyData", Some a, Some idx -> Wanchor (a, idx)
          | Some "GlobalLoc", Some l, _ -> Wglobal l
          | Some "GlobalCodeLoc", Some l, _ -> Wcode l
          | _ -> Wnone)
      | _ -> Wnone)

let parse_validity (v : V.t option) : (int * int * int) list * bool =
  match v with
  | None -> ([], false)
  | Some { V.v = V.Arr a; _ } -> (
      let n = Array.length a in
      if n mod 3 <> 0 then ([], true)
      else
        try
          let rec go i acc =
            if i >= n then List.rev acc
            else
              go (i + 3)
                ((V.to_int a.(i), V.to_int a.(i + 1), V.to_int a.(i + 2)) :: acc)
          in
          (go 0 [], false)
        with _ -> ([], true))
  | Some _ -> ([], true)

let parse_sym (entry : V.t) : sym_view =
  let d = V.to_dict entry in
  let sv_validity, sv_validity_bad = parse_validity (dget d "validity") in
  {
    sv_name = V.to_str (dget_exn d "name");
    sv_kind = (match dget d "kind" with Some k -> V.to_str k | None -> "");
    sv_where = parse_where (dget d "where");
    sv_file = (match dget d "sourcefile" with Some f -> V.to_str f | None -> "");
    sv_line = (match dget d "sourcey" with Some l -> V.to_int l | None -> 0);
    sv_validity;
    sv_validity_bad;
  }

(** Locals reachable through the uplink chains of every stopping point,
    in chain order, each entry once (physical identity). *)
let chain_locals (proc_entry : V.t) : sym_view list =
  let seen : V.dict list ref = ref [] in
  let acc = ref [] in
  let rec walk (v : V.t) =
    match v.V.v with
    | V.Dict d when not (List.memq d !seen) ->
        seen := d :: !seen;
        acc := parse_sym v :: !acc;
        (match dget d "uplink" with Some up -> walk up | None -> ())
    | _ -> ()
  in
  (match dget (V.to_dict proc_entry) "loci" with
  | Some l -> Array.iter (fun locus -> walk (V.to_arr locus).(3)) (V.to_arr l)
  | None -> ());
  List.rev !acc

let parse_locus (locus : V.t) : locus_view =
  let a = V.to_arr locus in
  if Array.length a < 4 then fail "malformed locus";
  match parse_where (Some a.(2)) with
  | Wanchor (anchor, idx) -> { lv_line = V.to_int a.(0); lv_anchor = anchor; lv_idx = idx }
  | _ -> fail "locus without a LazyData object location"

let parse_proc (entry : V.t) : proc_view =
  let d = V.to_dict entry in
  let sv = parse_sym entry in
  let label = match sv.sv_where with Wcode l -> Some l | _ -> None in
  let loci =
    match dget d "loci" with
    | Some l -> Array.to_list (Array.map parse_locus (V.to_arr l))
    | None -> []
  in
  let saved =
    match dget d "savedregs" with
    | Some s ->
        Array.to_list
          (Array.map
             (fun pair ->
               let p = V.to_arr pair in
               (V.to_int p.(0), V.to_int p.(1)))
             (V.to_arr s))
    | None -> []
  in
  {
    pv_sym = sv;
    pv_label = label;
    pv_framesize = (match dget d "framesize" with Some n -> V.to_int n | None -> 0);
    pv_raoffset = (match dget d "raoffset" with Some n -> V.to_int n | None -> 0);
    pv_savedregs = saved;
    pv_loci = loci;
    pv_locals = chain_locals entry;
  }

(** Interpret the loader PostScript in a private interpreter and read both
    tables back as structured data.  Forces every deferred unit body, with
    the machine-dependent dictionary on the dictionary stack, exactly as
    the debugger would (Sec. 4.3) — but parses the {e stored} where
    procedures structurally instead of running them against a live
    process. *)
let ps_view_of ~(arch : Arch.t) (loader_ps : string) : ps_view =
  let interp = Ldb_pscript.Ps.create () in
  let defs = V.dict_create () in
  let arch_dict = V.dict_create () in
  I.begin_dict interp defs;
  Fun.protect
    ~finally:(fun () -> I.end_dict interp)
    (fun () ->
      I.run_string interp loader_ps;
      I.begin_dict interp arch_dict;
      Fun.protect
        ~finally:(fun () -> I.end_dict interp)
        (fun () ->
          I.run_string interp (Ldb_ldb.Mdep_ps.source arch);
          let loader =
            match dget defs "__loader" with
            | Some l -> V.to_dict l
            | None -> fail "loader PostScript did not define /__loader"
          in
          let symtab =
            match dget defs "__symtab" with
            | Some s -> V.to_dict s
            | None -> fail "loader PostScript did not define /__symtab"
          in
          let anchors =
            match dget symtab "anchors" with
            | Some a -> Array.to_list (Array.map name_of (V.to_arr a))
            | None -> []
          in
          let units =
            match dget symtab "units" with
            | None -> []
            | Some units ->
                let ud = V.to_dict units in
                Hashtbl.fold
                  (fun file entry acc ->
                    let ed = V.to_dict entry in
                    let body = dget_exn ed "body" in
                    let tag = V.to_str (dget_exn ed "tag") in
                    (* compressed bodies ship as LZW streams; decode before
                       forcing, exactly as the debugger does *)
                    let body =
                      match dget ed "encoding" with
                      | None -> body
                      | Some enc when V.to_str enc = "lzw" -> (
                          match body.V.v with
                          | V.Str s -> (
                              try V.str (Ldb_util.Lzw.decompress s)
                              with Invalid_argument _ ->
                                fail "unit %s: corrupt lzw body" file)
                          | _ -> fail "unit %s: encoded body is not a string" file)
                      | Some enc -> fail "unit %s: unknown body encoding %s" file (V.to_str enc)
                    in
                    let str_list key =
                      match dget ed key with
                      | Some v -> Some (Array.to_list (Array.map V.to_str (V.to_arr v)))
                      | None -> None
                    in
                    let lines =
                      match (dget ed "minline", dget ed "maxline") with
                      | Some lo, Some hi -> Some (V.to_int lo, V.to_int hi)
                      | _ -> None
                    in
                    (* force the deferred body; its definitions land in the
                       arch dictionary, the top of the dictionary stack *)
                    I.exec_value interp (V.cvx body);
                    let result =
                      match I.lookup interp ("UNITRESULT$" ^ tag) with
                      | Some r -> V.to_dict r
                      | None -> fail "unit %s did not define its result" file
                    in
                    let procs =
                      match dget result "procs" with
                      | Some ps -> Array.to_list (Array.map parse_proc (V.to_arr ps))
                      | None -> []
                    in
                    let statics =
                      match dget result "statics" with
                      | Some s ->
                          Hashtbl.fold
                            (fun _ e acc -> parse_sym e :: acc)
                            (V.to_dict s).V.tbl []
                      | None -> []
                    in
                    {
                      uv_file = file;
                      uv_procs = procs;
                      uv_statics = statics;
                      uv_names = str_list "names";
                      uv_labels = Option.value ~default:[] (str_list "labels");
                      uv_lines = lines;
                    }
                    :: acc)
                  ud.V.tbl []
          in
          let kv_int d =
            Hashtbl.fold (fun k v acc -> (k, V.to_int v) :: acc) d.V.tbl []
          in
          let anchormap =
            match dget loader "anchormap" with Some d -> kv_int (V.to_dict d) | None -> []
          in
          let globalmap =
            match dget loader "globalmap" with Some d -> kv_int (V.to_dict d) | None -> []
          in
          let proctable =
            match dget loader "proctable" with
            | Some p ->
                let a = V.to_arr p in
                let rec pairs i acc =
                  if i + 1 >= Array.length a then List.rev acc
                  else pairs (i + 2) ((V.to_int a.(i), V.to_str a.(i + 1)) :: acc)
                in
                pairs 0 []
            | None -> []
          in
          {
            psv_anchors = anchors;
            psv_units = units;
            psv_anchormap = anchormap;
            psv_proctable = proctable;
            psv_globalmap = globalmap;
          }))

(* --- shared artifact context -------------------------------------------------- *)

type ctx = {
  arch : Arch.t;
  tname : string;
  tdesc : Target.t;
  img : Link.image;
  nm : Nm.entry list;
  code_base : int;
  code_end : int;
  data_base : int;
  data_end : int;
  ps : ps_view;
  out : F.t list ref;
}

let report cx kind where fmt =
  Printf.ksprintf
    (fun msg -> cx.out := { F.kind; target = cx.tname; where; msg } :: !(cx.out))
    fmt

let in_code cx a = a >= cx.code_base && a < cx.code_end
let in_data cx a = a >= cx.data_base && a < cx.data_end

(** Read the 4-byte word at [addr] in the data segment, target byte order. *)
let data_word cx addr =
  if addr < cx.data_base || addr + 4 > cx.data_end then None
  else
    Some
      (Int32.to_int
         (Ldb_util.Endian.get_u32 (Arch.endian cx.arch)
            (Bytes.unsafe_of_string cx.img.Link.i_data)
            (addr - cx.data_base)))

let anchor_address cx name =
  match List.assoc_opt name cx.ps.psv_anchormap with
  | Some a -> Some a
  | None ->
      List.find_map
        (fun (e : Nm.entry) -> if e.Nm.name = name then Some e.Nm.addr else None)
        cx.nm

(** End of the data region an anchor owns: the next visible data symbol
    above it (anchor slots are laid out contiguously at the anchor). *)
let anchor_region_end cx anchor_addr =
  List.fold_left
    (fun best (e : Nm.entry) ->
      if (not (Nm.is_text e)) && e.Nm.addr > anchor_addr && e.Nm.addr < best then e.Nm.addr
      else best)
    cx.data_end cx.nm

(* --- family (a): stopping points ---------------------------------------------- *)

(** Disassemble the whole code segment, recording every instruction
    boundary and its width.  This is the ground truth the stopping-point
    checks stand on. *)
let walk_code cx : (int, int) Hashtbl.t =
  let code = cx.img.Link.i_code in
  let fetch a =
    let i = a - cx.code_base in
    if i >= 0 && i < String.length code then Char.code code.[i] else 0
  in
  let bounds = Hashtbl.create 1024 in
  let pos = ref cx.code_base in
  while !pos < cx.code_end do
    match Target.decode cx.tdesc ~fetch !pos with
    | _, w when w > 0 ->
        Hashtbl.replace bounds !pos w;
        pos := !pos + w
    | _, _ -> fail "decoder returned a zero width"
    | exception Optab.Bad_encoding m ->
        report cx F.Bad_decode (F.at_addr !pos) "code byte sequence does not decode: %s" m;
        pos := !pos + cx.tdesc.Target.insn_unit
  done;
  bounds

(** Verify one stopping point given as (anchor, slot index): resolve the
    slot, then prove the no-op contract at the stop address.  [what] says
    which table named it. *)
let check_stop cx bounds ~what ~anchor ~idx =
  match anchor_address cx anchor with
  | None -> report cx F.Unresolved_sym anchor "%s names an anchor the linker does not know" what
  | Some aaddr ->
      let slot = aaddr + (4 * idx) in
      if slot + 4 > anchor_region_end cx aaddr || idx < 0 then
        report cx F.Dangling_slot (F.at_addr slot)
          "%s: anchor slot %d of %s lies outside the anchor's data region" what idx anchor
      else
        match data_word cx slot with
        | None ->
            report cx F.Dangling_slot (F.at_addr slot)
              "%s: anchor slot %d of %s lies outside the data segment" what idx anchor
        | Some stop ->
            if not (in_code cx stop) then
              report cx F.Bad_segment (F.at_addr stop)
                "%s: stopping point is outside the code segment" what
            else begin
              (match Hashtbl.find_opt bounds stop with
              | None ->
                  report cx F.Misaligned_stop (F.at_addr stop)
                    "%s: stopping point is not on an instruction boundary" what
              | Some w ->
                  if w <> cx.tdesc.Target.nop_advance then
                    report cx F.Nop_advance (F.at_addr stop)
                      "%s: instruction width %d at the stopping point disagrees with nop_advance %d"
                      what w cx.tdesc.Target.nop_advance);
              let nop = cx.tdesc.Target.nop in
              let here =
                let off = stop - cx.code_base in
                if off + String.length nop <= String.length cx.img.Link.i_code then
                  String.sub cx.img.Link.i_code off (String.length nop)
                else ""
              in
              if not (String.equal here nop) then
                report cx F.Bad_nop (F.at_addr stop)
                  "%s: bytes at the stopping point are %s, not the %s no-op %s" what
                  (String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length here) (String.get here)))))
                  cx.tname
                  (String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length nop) (String.get nop)))))
            end

let check_stops cx =
  let bounds = walk_code cx in
  (* nop_advance must also be the encoder's published length for Nop *)
  if Target.insn_length cx.tdesc Insn.Nop <> cx.tdesc.Target.nop_advance then
    report cx F.Nop_advance (F.at_addr cx.code_base)
      "target description: nop_advance %d disagrees with the encoder's Nop length %d"
      cx.tdesc.Target.nop_advance
      (Target.insn_length cx.tdesc Insn.Nop);
  (* PostScript view: every locus of every procedure *)
  List.iter
    (fun uv ->
      List.iter
        (fun pv ->
          List.iter
            (fun lv ->
              check_stop cx bounds
                ~what:
                  (Printf.sprintf "pstab %s (%s:%d)" pv.pv_sym.sv_name uv.uv_file lv.lv_line)
                ~anchor:lv.lv_anchor ~idx:lv.lv_idx)
            pv.pv_loci)
        uv.uv_procs)
    cx.ps.psv_units;
  (* stabs view: every n_sline, against the unit's generated anchor *)
  List.iter
    (fun (uv : Ldb_stabsdbg.Stabsdbg.unit_view) ->
      let anchor = Ldb_cc.Sym.anchor_name uv.Ldb_stabsdbg.Stabsdbg.uv_name in
      List.iter
        (fun (fv : Ldb_stabsdbg.Stabsdbg.func_view) ->
          List.iter
            (fun (s : Ldb_stabsdbg.Stabsdbg.stab) ->
              check_stop cx bounds
                ~what:
                  (Printf.sprintf "stabs %s (%s:%d)"
                     (Ldb_stabsdbg.Stabsdbg.stab_name fv.Ldb_stabsdbg.Stabsdbg.fv_fun)
                     uv.Ldb_stabsdbg.Stabsdbg.uv_name s.Ldb_stabsdbg.Stabsdbg.st_desc)
                ~anchor ~idx:s.Ldb_stabsdbg.Stabsdbg.st_value)
            fv.Ldb_stabsdbg.Stabsdbg.fv_slines)
        uv.Ldb_stabsdbg.Stabsdbg.uv_funcs)
    (Ldb_stabsdbg.Stabsdbg.units (Ldb_stabsdbg.Stabsdbg.parse cx.img.Link.i_stabs))

(* --- family (b): symbols and anchors ------------------------------------------ *)

let check_symbols cx =
  let nm_by_name = Hashtbl.create 64 in
  List.iter (fun (e : Nm.entry) -> Hashtbl.replace nm_by_name e.Nm.name e) cx.nm;
  (* no address may be both text and data *)
  let by_addr = Hashtbl.create 64 in
  List.iter
    (fun (e : Nm.entry) ->
      (match Hashtbl.find_opt by_addr e.Nm.addr with
      | Some (other : Nm.entry) when Nm.is_text other <> Nm.is_text e ->
          report cx F.Alias_clash (F.at_addr e.Nm.addr)
            "%s and %s alias the same address with different segments" other.Nm.name e.Nm.name
      | _ -> ());
      Hashtbl.replace by_addr e.Nm.addr e)
    cx.nm;
  (* every anchor the symbol table claims must resolve, into the data
     segment, word-aligned *)
  List.iter
    (fun a ->
      match List.assoc_opt a cx.ps.psv_anchormap with
      | None -> report cx F.Unresolved_sym a "symbol table anchor is missing from the anchor map"
      | Some addr ->
          if not (in_data cx addr) then
            report cx F.Bad_segment (F.at_addr addr) "anchor %s lies outside the data segment" a
          else if addr mod 4 <> 0 then
            report cx F.Bad_segment (F.at_addr addr) "anchor %s is not word-aligned" a)
    cx.ps.psv_anchors;
  (* the anchor map must agree with nm *)
  List.iter
    (fun (name, addr) ->
      match Hashtbl.find_opt nm_by_name name with
      | None -> report cx F.Unresolved_sym name "anchor map entry has no nm symbol"
      | Some e ->
          if e.Nm.addr <> addr then
            report cx F.Alias_clash (F.at_addr addr)
              "anchor map places %s at 0x%06x but nm places it at 0x%06x" name addr e.Nm.addr)
    cx.ps.psv_anchormap;
  (* procedure table: text addresses, consistent with nm and the global map *)
  List.iter
    (fun (addr, name) ->
      if not (in_code cx addr) then
        report cx F.Bad_segment (F.at_addr addr)
          "procedure table entry %s lies outside the code segment" name;
      (match Hashtbl.find_opt nm_by_name name with
      | None -> report cx F.Unresolved_sym name "procedure table entry has no nm symbol"
      | Some e ->
          if e.Nm.addr <> addr then
            report cx F.Alias_clash (F.at_addr addr)
              "procedure table places %s at 0x%06x but nm places it at 0x%06x" name addr
              e.Nm.addr);
      match List.assoc_opt name cx.ps.psv_globalmap with
      | Some g when g <> addr ->
          report cx F.Alias_clash name
            "procedure table and global map disagree on %s (0x%06x vs 0x%06x)" name addr g
      | _ -> ())
    cx.ps.psv_proctable;
  (* global map: every entry backed by nm, in the segment its kind demands *)
  List.iter
    (fun (name, addr) ->
      match Hashtbl.find_opt nm_by_name name with
      | None -> report cx F.Unresolved_sym name "global map entry has no nm symbol"
      | Some e ->
          if e.Nm.addr <> addr then
            report cx F.Alias_clash (F.at_addr addr)
              "global map places %s at 0x%06x but nm places it at 0x%06x" name addr e.Nm.addr
          else if Nm.is_text e && not (in_code cx addr) then
            report cx F.Bad_segment (F.at_addr addr)
              "text symbol %s lies outside the code segment" name
          else if (not (Nm.is_text e)) && not (in_data cx addr) then
            report cx F.Bad_segment (F.at_addr addr)
              "data symbol %s lies outside the data segment" name)
    cx.ps.psv_globalmap;
  (* per-unit: procedure labels resolve as text; statics resolve through
     their unit's anchor into the data segment *)
  List.iter
    (fun uv ->
      List.iter
        (fun pv ->
          match pv.pv_label with
          | None ->
              report cx F.Unresolved_sym pv.pv_sym.sv_name
                "procedure entry has no global code location"
          | Some l -> (
              match Hashtbl.find_opt nm_by_name l with
              | Some e when Nm.is_text e -> ()
              | Some _ ->
                  report cx F.Bad_segment l "procedure label %s names a data symbol" l
              | None -> report cx F.Unresolved_sym l "procedure label has no nm symbol"))
        uv.uv_procs;
      List.iter
        (fun sv ->
          match sv.sv_where with
          | Wanchor (anchor, idx) -> (
              match anchor_address cx anchor with
              | None ->
                  report cx F.Unresolved_sym anchor
                    "static %s is anchored to an unknown anchor" sv.sv_name
              | Some aaddr -> (
                  let slot = aaddr + (4 * idx) in
                  if idx < 0 || slot + 4 > anchor_region_end cx aaddr then
                    report cx F.Dangling_slot (F.at_addr slot)
                      "static %s uses anchor slot %d outside the anchor's region" sv.sv_name
                      idx
                  else
                    match data_word cx slot with
                    | Some a when not (in_data cx a) ->
                        report cx F.Bad_segment (F.at_addr a)
                          "static %s resolves outside the data segment" sv.sv_name
                    | _ -> ()))
          | Wglobal l | Wcode l ->
              if not (Hashtbl.mem nm_by_name l) then
                report cx F.Unresolved_sym l "static/global %s has no nm symbol" sv.sv_name
          | _ -> ())
        uv.uv_statics)
    cx.ps.psv_units

(** The demand hints in the units dictionary are an index the debugger
    trusts to skip forcing units — stale hints silently break lazy lookup
    (a query forces nothing, or the wrong unit), so verify them against
    the forced unit's actual contents. *)
let check_hints cx =
  List.iter
    (fun uv ->
      (match uv.uv_names with
      | None -> ()
      | Some names ->
          List.iter
            (fun pv ->
              if not (List.mem pv.pv_sym.sv_name names) then
                report cx F.Hint_mismatch uv.uv_file
                  "unit defines %s but its /names hint omits it" pv.pv_sym.sv_name;
              match pv.pv_label with
              | Some l when not (List.mem l uv.uv_labels) ->
                  report cx F.Hint_mismatch uv.uv_file
                    "unit defines label %s but its /labels hint omits it" l
              | _ -> ())
            uv.uv_procs);
      match uv.uv_lines with
      | None ->
          if uv.uv_names <> None && List.exists (fun pv -> pv.pv_loci <> []) uv.uv_procs then
            report cx F.Hint_mismatch uv.uv_file
              "unit has stopping points but no /minline//maxline hint"
      | Some (lo, hi) ->
          List.iter
            (fun pv ->
              List.iter
                (fun lv ->
                  if lv.lv_line < lo || lv.lv_line > hi then
                    report cx F.Hint_mismatch
                      (F.at_pos uv.uv_file lv.lv_line)
                      "%s: stopping point at line %d lies outside the hinted range %d..%d"
                      pv.pv_sym.sv_name lv.lv_line lo hi)
                pv.pv_loci)
            uv.uv_procs)
    cx.ps.psv_units

(* --- family (c): frames -------------------------------------------------------- *)

(** Smallest legal parameter offset under the target's convention:
    SIM-MIPS (no frame pointer) addresses parameters from 0; the
    68020/VAX push a return address and save the frame pointer (so 8);
    SPARC saves only the frame pointer (so 4). *)
let min_param_offset (t : Target.t) =
  match (t.Target.fp, t.Target.ra) with
  | None, _ -> 0
  | _, None -> 8
  | _, _ -> 4

let check_frames cx =
  let reg_ok r = List.mem r cx.tdesc.Target.reg_vars in
  let rpt_by_addr = Hashtbl.create 16 in
  List.iter
    (fun (e : Ldb_machine.Rpt.entry) -> Hashtbl.replace rpt_by_addr e.Rpt.addr e)
    cx.img.Link.i_rpt;
  List.iter
    (fun uv ->
      List.iter
        (fun pv ->
          let where = F.at_pos pv.pv_sym.sv_file pv.pv_sym.sv_line in
          let fsize = pv.pv_framesize in
          if fsize < 0 || fsize mod 4 <> 0 then
            report cx F.Frame_bounds where "%s: frame size %d is not a non-negative multiple of 4"
              pv.pv_sym.sv_name fsize;
          if pv.pv_raoffset <> fsize - 4 then
            report cx F.Frame_bounds where
              "%s: return-address offset %d does not match frame size %d - 4" pv.pv_sym.sv_name
              pv.pv_raoffset fsize;
          List.iter
            (fun sv ->
              let swhere = F.at_pos sv.sv_file sv.sv_line in
              match sv.sv_where with
              | Wframe off ->
                  if sv.sv_kind = "parameter" then begin
                    if off < min_param_offset cx.tdesc then
                      report cx F.Frame_bounds swhere
                        "parameter %s of %s at offset %d is below the %s convention's minimum %d"
                        sv.sv_name pv.pv_sym.sv_name off cx.tname (min_param_offset cx.tdesc)
                  end
                  else if off >= 0 || -off > fsize then
                    report cx F.Frame_bounds swhere
                      "local %s of %s at offset %d does not fit the %d-byte frame" sv.sv_name
                      pv.pv_sym.sv_name off fsize
              | Wreg r ->
                  if not (reg_ok r) then
                    report cx F.Bad_reg_var swhere
                      "register variable %s of %s names r%d, not an allocatable register variable"
                      sv.sv_name pv.pv_sym.sv_name r
              | _ -> ())
            pv.pv_locals;
          List.iter
            (fun (r, off) ->
              if not (reg_ok r) then
                report cx F.Bad_reg_var where "%s saves r%d, not a register variable"
                  pv.pv_sym.sv_name r;
              if off >= 0 || -off > fsize then
                report cx F.Frame_bounds where
                  "%s: register save slot at offset %d does not fit the %d-byte frame"
                  pv.pv_sym.sv_name off fsize)
            pv.pv_savedregs;
          (* SIM-MIPS: the runtime procedure table is the frame contract *)
          if Arch.equal cx.arch Mips then
            match pv.pv_label with
            | None -> ()
            | Some l -> (
                let addr =
                  List.find_map
                    (fun (e : Nm.entry) -> if e.Nm.name = l then Some e.Nm.addr else None)
                    cx.nm
                in
                match addr with
                | None -> ()
                | Some addr -> (
                    match Hashtbl.find_opt rpt_by_addr addr with
                    | None ->
                        report cx F.Rpt_mismatch where
                          "%s has no runtime procedure table entry" pv.pv_sym.sv_name
                    | Some e ->
                        if e.Rpt.frame_size <> fsize || e.Rpt.ra_offset <> pv.pv_raoffset then
                          report cx F.Rpt_mismatch where
                            "%s: procedure table says frame %d/ra %d, symbol table says %d/%d"
                            pv.pv_sym.sv_name e.Rpt.frame_size e.Rpt.ra_offset fsize
                            pv.pv_raoffset)))
        uv.uv_procs)
    cx.ps.psv_units;
  (* every procedure-table entry must describe a text symbol *)
  if Arch.equal cx.arch Mips then begin
    let text_addrs = Hashtbl.create 64 in
    List.iter
      (fun (e : Nm.entry) -> if Nm.is_text e then Hashtbl.replace text_addrs e.Nm.addr ())
      cx.nm;
    List.iter
      (fun (e : Ldb_machine.Rpt.entry) ->
        if not (Hashtbl.mem text_addrs e.Rpt.addr) then
          report cx F.Rpt_mismatch (F.at_addr e.Rpt.addr)
            "runtime procedure table entry does not name a text symbol")
      cx.img.Link.i_rpt
  end

(* --- family (d): differential (stabs vs PostScript) --------------------------- *)

module Sd = Ldb_stabsdbg.Stabsdbg

(** Compare a stabs line (u16 desc) against the PostScript line, allowing
    for — and reporting — the emitter's documented clamp. *)
let check_line cx ~what ~where ~ps_line ~st_desc =
  if ps_line <> st_desc then
    if ps_line > 0xffff && st_desc = 0xffff then
      report cx F.Line_clamped where
        "%s: line %d was clamped to 65535 in the stabs u16 desc field" what ps_line
    else
      report cx F.Stabs_mismatch where "%s: stabs says line %d, PostScript table says %d" what
        st_desc ps_line

(* the stabs value field is a u32; frame offsets are stored two's
   complement, so sign-extend before comparing *)
let signed32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let stab_where_matches (sv : sym_view) (s : Sd.stab) =
  let module E = Ldb_cc.Stabsemit in
  if s.Sd.st_type = E.n_rsym then
    match sv.sv_where with Wreg r -> r = s.Sd.st_value | _ -> false
  else if s.Sd.st_type = E.n_psym || s.Sd.st_type = E.n_lsym then
    match sv.sv_where with
    | Wframe off -> off = signed32 s.Sd.st_value
    | Wnone -> s.Sd.st_value = 0
    | _ -> false
  else if s.Sd.st_type = E.n_stsym then
    match sv.sv_where with Wanchor (_, idx) -> idx = s.Sd.st_value | _ -> false
  else if s.Sd.st_type = E.n_gsym then
    match sv.sv_where with Wglobal _ | Wcode _ -> true | Wnone -> true | _ -> false
  else true

(** Compare one function's two views: name-matched symbols must agree on
    location and line; the stopping-point lists must agree pairwise. *)
let check_func_diff cx ~file (pv : proc_view) (fv : Sd.func_view) =
  let what = pv.pv_sym.sv_name in
  let where = F.at_pos pv.pv_sym.sv_file pv.pv_sym.sv_line in
  check_line cx ~what ~where ~ps_line:pv.pv_sym.sv_line ~st_desc:fv.Sd.fv_fun.Sd.st_desc;
  (* stopping points, in emission order on both sides *)
  let slines = fv.Sd.fv_slines in
  if List.length slines <> List.length pv.pv_loci then
    report cx F.Stabs_mismatch where
      "%s: stabs records %d stopping points, the PostScript table %d" what
      (List.length slines) (List.length pv.pv_loci)
  else
    List.iter2
      (fun lv (s : Sd.stab) ->
        if s.Sd.st_value <> lv.lv_idx then
          report cx F.Stabs_mismatch (F.at_pos file lv.lv_line)
            "%s: stabs stopping point uses anchor slot %d, the PostScript table slot %d" what
            s.Sd.st_value lv.lv_idx;
        check_line cx ~what ~where:(F.at_pos file lv.lv_line) ~ps_line:lv.lv_line
          ~st_desc:s.Sd.st_desc)
      pv.pv_loci slines;
  (* symbols, matched by name when unambiguous *)
  let count name l = List.length (List.filter (fun x -> x = name) l) in
  let ps_names = List.map (fun sv -> sv.sv_name) pv.pv_locals in
  let st_names = List.map Sd.stab_name fv.Sd.fv_syms in
  List.iter
    (fun sv ->
      if count sv.sv_name st_names = 0 then
        report cx F.Stabs_mismatch (F.at_pos sv.sv_file sv.sv_line)
          "%s: %s appears in the PostScript table but not in the stabs" what sv.sv_name)
    pv.pv_locals;
  List.iter
    (fun (s : Sd.stab) ->
      let n = Sd.stab_name s in
      if count n ps_names = 0 then
        report cx F.Stabs_mismatch where
          "%s: %s appears in the stabs but not in the PostScript table" what n)
    fv.Sd.fv_syms;
  List.iter
    (fun sv ->
      if count sv.sv_name ps_names = 1 && count sv.sv_name st_names = 1 then begin
        let s = List.find (fun s -> Sd.stab_name s = sv.sv_name) fv.Sd.fv_syms in
        if not (stab_where_matches sv s) then
          report cx F.Stabs_mismatch (F.at_pos sv.sv_file sv.sv_line)
            "%s: the two tables place %s differently (stabs value %d)" what sv.sv_name
            s.Sd.st_value;
        check_line cx ~what:(what ^ "/" ^ sv.sv_name) ~where:(F.at_pos sv.sv_file sv.sv_line)
          ~ps_line:sv.sv_line ~st_desc:s.Sd.st_desc
      end)
    pv.pv_locals

let check_differential cx =
  let st_units = Sd.units (Sd.parse cx.img.Link.i_stabs) in
  let ps_units = cx.ps.psv_units in
  List.iter
    (fun uv ->
      if not (List.exists (fun (u : Sd.unit_view) -> u.Sd.uv_name = uv.uv_file) st_units) then
        report cx F.Stabs_mismatch uv.uv_file "unit is missing from the stabs")
    ps_units;
  List.iter
    (fun (u : Sd.unit_view) ->
      match List.find_opt (fun uv -> uv.uv_file = u.Sd.uv_name) ps_units with
      | None -> report cx F.Stabs_mismatch u.Sd.uv_name "unit is missing from the PostScript table"
      | Some uv ->
          (* functions by name *)
          List.iter
            (fun pv ->
              match
                List.find_opt
                  (fun (fv : Sd.func_view) -> Sd.stab_name fv.Sd.fv_fun = pv.pv_sym.sv_name)
                  u.Sd.uv_funcs
              with
              | None ->
                  report cx F.Stabs_mismatch
                    (F.at_pos pv.pv_sym.sv_file pv.pv_sym.sv_line)
                    "%s is missing from the stabs" pv.pv_sym.sv_name
              | Some fv -> check_func_diff cx ~file:u.Sd.uv_name pv fv)
            uv.uv_procs;
          List.iter
            (fun (fv : Sd.func_view) ->
              let n = Sd.stab_name fv.Sd.fv_fun in
              if not (List.exists (fun pv -> pv.pv_sym.sv_name = n) uv.uv_procs) then
                report cx F.Stabs_mismatch u.Sd.uv_name
                  "%s is missing from the PostScript table" n)
            u.Sd.uv_funcs;
          (* unit-level statics: anchor slots must agree *)
          let module E = Ldb_cc.Stabsemit in
          List.iter
            (fun (s : Sd.stab) ->
              if s.Sd.st_type = E.n_stsym then
                let n = Sd.stab_name s in
                match List.find_opt (fun sv -> sv.sv_name = n) uv.uv_statics with
                | None ->
                    report cx F.Stabs_mismatch u.Sd.uv_name
                      "static %s is missing from the PostScript table" n
                | Some sv ->
                    if not (stab_where_matches sv s) then
                      report cx F.Stabs_mismatch (F.at_pos sv.sv_file sv.sv_line)
                        "the two tables place static %s differently" n)
            u.Sd.uv_toplevel)
    st_units

(* --- family (e): variable-validity ranges ------------------------------------- *)

(** Well-formedness of one local's emitted ranges: fact codes in {0,1,2},
    stop indexes inside [0, nstops), and the ranges a sorted, gapless,
    non-overlapping cover of the whole stop sequence — the shape
    [Validity.compute] always produces. *)
let check_validity_shape cx ~what ~where ~nstops ranges =
  let ok = ref true in
  List.iter
    (fun (lo, hi, f) ->
      if f < 0 || f > 2 then begin
        ok := false;
        report cx F.Validity_range where "%s: unknown fact code %d in range %d-%d" what f
          lo hi
      end;
      if lo < 0 || hi < lo || hi >= nstops then begin
        ok := false;
        report cx F.Validity_range where
          "%s: range %d-%d lies outside the function's %d stopping point(s)" what lo hi
          nstops
      end)
    ranges;
  if !ok then begin
    let rec cover expect = function
      | [] ->
          if expect <> nstops then
            report cx F.Validity_range where
              "%s: ranges cover stop indexes up to %d of %d" what (expect - 1) nstops
      | (lo, hi, _) :: rest ->
          if lo <> expect then begin
            report cx F.Validity_range where
              "%s: ranges %s at stop index %d" what
              (if lo > expect then "leave a gap" else "overlap")
              (min lo expect)
          end
          else cover (hi + 1) rest
    in
    cover 0 ranges
  end

(** Check the emitted validity ranges themselves: shape on the PostScript
    side, decodability on the stabs side, and agreement between the two
    tables local by local. *)
let check_validity cx =
  let st_units = Sd.units (Sd.parse cx.img.Link.i_stabs) in
  List.iter
    (fun uv ->
      let su =
        List.find_opt (fun (u : Sd.unit_view) -> u.Sd.uv_name = uv.uv_file) st_units
      in
      List.iter
        (fun pv ->
          let what = pv.pv_sym.sv_name in
          let nstops = List.length pv.pv_loci in
          (* shape of what the PostScript table carries *)
          List.iter
            (fun sv ->
              let where = F.at_pos sv.sv_file sv.sv_line in
              if sv.sv_validity_bad then
                report cx F.Validity_range where
                  "%s: /validity of %s is not a flat array of integer triples" what
                  sv.sv_name
              else if sv.sv_validity <> [] then
                check_validity_shape cx
                  ~what:(what ^ "/" ^ sv.sv_name)
                  ~where ~nstops sv.sv_validity)
            pv.pv_locals;
          (* the stabs view of the same function *)
          match su with
          | None -> () (* a whole missing unit is check_differential's complaint *)
          | Some u -> (
              match
                List.find_opt
                  (fun (fv : Sd.func_view) -> Sd.stab_name fv.Sd.fv_fun = what)
                  u.Sd.uv_funcs
              with
              | None -> ()
              | Some fv ->
                  let fwhere = F.at_pos uv.uv_file pv.pv_sym.sv_line in
                  List.iter
                    (fun (s : Sd.stab) ->
                      if Sd.parse_valid s = None then
                        report cx F.Validity_range fwhere
                          "%s: stabs validity record %S does not decode" what
                          s.Sd.st_name)
                    fv.Sd.fv_valid;
                  let st_ranges = List.filter_map Sd.parse_valid fv.Sd.fv_valid in
                  let count name l = List.length (List.filter (fun x -> x = name) l) in
                  let ps_named =
                    List.filter
                      (fun sv -> sv.sv_validity <> [] || sv.sv_validity_bad)
                      pv.pv_locals
                  in
                  let ps_names = List.map (fun sv -> sv.sv_name) ps_named in
                  let st_names = List.map fst st_ranges in
                  List.iter
                    (fun sv ->
                      if count sv.sv_name st_names = 0 then
                        report cx F.Validity_missing (F.at_pos sv.sv_file sv.sv_line)
                          "%s: validity ranges for %s appear in the PostScript table but not in the stabs"
                          what sv.sv_name)
                    ps_named;
                  List.iter
                    (fun (n, _) ->
                      if count n ps_names = 0 then
                        report cx F.Validity_missing fwhere
                          "%s: validity ranges for %s appear in the stabs but not in the PostScript table"
                          what n)
                    st_ranges;
                  List.iter
                    (fun sv ->
                      if count sv.sv_name ps_names = 1 && count sv.sv_name st_names = 1
                      then
                        let _, sr =
                          List.find (fun (n, _) -> n = sv.sv_name) st_ranges
                        in
                        if sr <> sv.sv_validity then
                          report cx F.Validity_stabs_mismatch
                            (F.at_pos sv.sv_file sv.sv_line)
                            "%s: the two tables carry different validity ranges for %s"
                            what sv.sv_name)
                    ps_named))
        uv.uv_procs)
    cx.ps.psv_units

(** Recompute the dataflow analysis from source and hold the emitted
    tables to it: every claim in the table must be exactly what the
    analysis proves, and every proof must be in the table.  This is the
    independent check the issue asks for — the emitters cannot vouch for
    themselves. *)
let check_validity_recompute cx (sources : (string * string) list) =
  let module Cc = Ldb_cc in
  let where_matches (s : Cc.Sym.t) sv =
    match (s.Cc.Sym.where, sv.sv_where) with
    | Some (Cc.Sym.Frame off), Wframe off' -> off = off'
    | Some (Cc.Sym.In_reg r), Wreg r' -> r = r'
    | _ -> false
  in
  List.iter
    (fun uv ->
      match List.assoc_opt uv.uv_file sources with
      | None -> ()
      | Some src -> (
          match
            try Some (Cc.Compile.translate ~arch:cx.arch ~file:uv.uv_file src)
            with _ -> None
          with
          | None ->
              report cx F.Validity_unsound uv.uv_file
                "could not recompile the unit to recompute validity"
          | Some ui ->
              List.iter
                (fun (fi : Cc.Sema.func_ir) ->
                  let expected = Cc.Validity.compute fi in
                  match
                    List.find_opt
                      (fun pv -> pv.pv_sym.sv_name = fi.Cc.Sema.fi_name)
                      uv.uv_procs
                  with
                  | None -> () (* missing procs are check_differential's complaint *)
                  | Some pv ->
                      List.iter
                        (fun ((s : Cc.Sym.t), ranges) ->
                          match
                            List.find_opt
                              (fun sv ->
                                sv.sv_name = s.Cc.Sym.sym_name && where_matches s sv)
                              pv.pv_locals
                          with
                          | None ->
                              if ranges <> [] then
                                report cx F.Validity_unsound
                                  (F.at_pos s.Cc.Sym.sfile s.Cc.Sym.spos.Cc.Lex.line)
                                  "%s: the analysis tracks %s but the table carries no entry for it"
                                  fi.Cc.Sema.fi_name s.Cc.Sym.sym_name
                          | Some sv ->
                              if sv.sv_validity <> ranges then
                                report cx F.Validity_unsound
                                  (F.at_pos sv.sv_file sv.sv_line)
                                  "%s: the table's validity ranges for %s are not what the analysis proves"
                                  fi.Cc.Sema.fi_name sv.sv_name)
                        expected;
                      List.iter
                        (fun sv ->
                          let proven =
                            List.exists
                              (fun ((s : Cc.Sym.t), _) ->
                                s.Cc.Sym.sym_name = sv.sv_name && where_matches s sv)
                              expected
                          in
                          if (sv.sv_validity <> [] || sv.sv_validity_bad) && not proven
                          then
                            report cx F.Validity_unsound
                              (F.at_pos sv.sv_file sv.sv_line)
                              "%s: the table claims validity ranges for %s the analysis does not prove"
                              fi.Cc.Sema.fi_name sv.sv_name)
                        pv.pv_locals)
                ui.Cc.Sema.ui_funcs))
    cx.ps.psv_units

(* --- core dumps ------------------------------------------------------------- *)

module Crc32 = Ldb_util.Crc32

(** Verify a core dump against the linked image it claims to come from:
    the architecture identity, the register-file shape, every section's
    checksum, and that the fault pc lies inside the image's code segment.
    {!Ldb_machine.Core.of_string} {e tolerates} damage so that salvage
    sessions can proceed; this check {e reports} it, and catches dumps
    that were miswritten rather than damaged in flight. *)
let check_core (img : Link.image) (co : Core.t) : F.t list =
  let arch = img.Link.i_arch in
  let out = ref [] in
  let report kind where fmt =
    Printf.ksprintf
      (fun msg -> out := { F.kind; target = Arch.name arch; where; msg } :: !out)
      fmt
  in
  if not (Arch.equal co.Core.co_arch arch) then
    report F.Core_arch "core" "dumped on %s but the image is for %s"
      (Arch.name co.Core.co_arch) (Arch.name arch);
  (* register files must have exactly the dumping architecture's shape *)
  let tdesc = Target.of_arch co.Core.co_arch in
  if Array.length co.Core.co_regs <> Target.nregs tdesc then
    report F.Core_reg_width "registers" "%d general registers in the dump, %d on %s"
      (Array.length co.Core.co_regs) (Target.nregs tdesc) (Arch.name co.Core.co_arch);
  if Array.length co.Core.co_fregs <> Target.nfregs tdesc then
    report F.Core_reg_width "registers" "%d float registers in the dump, %d on %s"
      (Array.length co.Core.co_fregs) (Target.nfregs tdesc) (Arch.name co.Core.co_arch);
  if co.Core.co_freg_bytes <> tdesc.Target.ctx_freg_bytes then
    report F.Core_reg_width "registers" "%d-byte float images, %s saves %d bytes"
      co.Core.co_freg_bytes (Arch.name co.Core.co_arch) tdesc.Target.ctx_freg_bytes;
  Array.iteri
    (fun i image ->
      if String.length image <> co.Core.co_freg_bytes then
        report F.Core_reg_width (Printf.sprintf "f%d" i)
          "float image is %d bytes, header promises %d" (String.length image)
          co.Core.co_freg_bytes)
    co.Core.co_fregs;
  (* every section's bytes must checksum to its stored CRC *)
  List.iter
    (fun (s : Core.section) ->
      let computed = Crc32.string s.Core.sec_bytes in
      if computed <> s.Core.sec_crc then
        report F.Core_crc s.Core.sec_name
          "stored CRC %08x, %d bytes checksum to %08x" s.Core.sec_crc
          (String.length s.Core.sec_bytes) computed
      else if not s.Core.sec_ok then
        report F.Core_crc s.Core.sec_name "section was recorded as damaged")
    co.Core.co_sections;
  (* the fault pc must point into the code segment the image defines *)
  let code_end = Ram.Layout.code_base + String.length img.Link.i_code in
  if co.Core.co_pc < Ram.Layout.code_base || co.Core.co_pc >= code_end then
    report F.Core_pc (F.at_addr co.Core.co_pc)
      "fault pc outside the code segment [%#x, %#x)" Ram.Layout.code_base code_end;
  List.rev !out

(* --- breakpoint-condition bytecode (bpcverify) --------------------------------- *)

module Bpc = Ldb_nub.Bpcode
module Bpv = Ldb_nub.Bpverify

let bpc_load = Bpc.Load { space = 'd'; size = 4; signed = true }

(** The seeded corpus: condition programs with a known verdict on every
    target.  The [`Accept] entries are the shapes the condition compiler
    emits (frame locals off sp, global flags, short-circuit jumps); the
    [`Reject] entries are one of each hostile class the verifier must
    stop at the door. *)
let bpc_corpus (t : Target.t) : (string * Bpc.prog * [ `Accept | `Reject ]) list =
  let data = Int32.of_int (Ram.Layout.data_base + 8) in
  let cmp rel = Bpc.Cmp { rel; signed = true } in
  [
    ( "frame-local-compare",
      [| Bpc.Load_reg t.Target.sp; Bpc.Push 8l; Bpc.Bin Bpc.Add; bpc_load;
         Bpc.Push 10l; cmp Bpc.Lt |],
      `Accept );
    ("global-flag", [| Bpc.Push data; bpc_load; Bpc.Push 0l; cmp Bpc.Ne |], `Accept);
    ( "short-circuit-and",
      [| Bpc.Push data; bpc_load; Bpc.Jz 5; Bpc.Push data; bpc_load; Bpc.Push 0l;
         cmp Bpc.Ne; Bpc.Jmp 1; Bpc.Push 0l |],
      `Accept );
    ("empty", [||], `Reject);
    ("backward-jump", [| Bpc.Push 1l; Bpc.Jmp (-2) |], `Reject);
    ("jump-past-end", [| Bpc.Push 1l; Bpc.Jmp 100 |], `Reject);
    ("wild-read", [| Bpc.Push 0l; bpc_load |], `Reject);
    ( "unbounded-frame-offset",
      [| Bpc.Load_reg t.Target.sp; Bpc.Push 100000l; Bpc.Bin Bpc.Add; bpc_load |],
      `Reject );
    ("bool-as-address", [| Bpc.Push 1l; Bpc.Push 2l; cmp Bpc.Eq; bpc_load |], `Reject);
    ("stack-leak", [| Bpc.Push 1l; Bpc.Push 2l |], `Reject);
    ("underflow", [| Bpc.Bin Bpc.Add |], `Reject);
    ("divide-by-zero", [| Bpc.Push 1l; Bpc.Push 0l; Bpc.Bin Bpc.Divs |], `Reject);
  ]

(** Report the verifier's verdict on every seeded program as findings of
    the [bpcverify] family — acceptances and rejections both, so the
    golden JSON pins the whole proof surface: a verifier that starts
    accepting a hostile shape, or rejecting a compiler shape, shows up
    as a diff, not as a silent behavior change in the field. *)
let check_bpcode (arch : Arch.t) : F.t list =
  let t = Target.of_arch arch in
  let out = ref [] in
  let report where fmt =
    Printf.ksprintf
      (fun msg ->
        out := { F.kind = F.Bpc_verify; target = Arch.name arch; where; msg } :: !out)
      fmt
  in
  List.iter
    (fun (name, prog, expect) ->
      match (Bpv.verify t prog, expect) with
      | [], `Accept ->
          report name "accepted: %d instruction(s), static cost %d"
            (Array.length prog)
            (Array.fold_left
               (fun acc insn ->
                 acc + (match insn with Bpc.Load _ -> Bpc.load_cost | _ -> 1))
               0 prog)
      | [], `Reject -> report name "DISAGREEMENT: hostile program accepted"
      | findings, `Reject ->
          List.iter (fun f -> report name "rejected: %s" (Bpv.finding_to_string f)) findings
      | findings, `Accept ->
          List.iter
            (fun f ->
              report name "DISAGREEMENT: compiler shape rejected: %s"
                (Bpv.finding_to_string f))
            findings)
    (bpc_corpus t);
  List.rev !out

(* --- entry points -------------------------------------------------------------- *)

type opts = {
  stops : bool;
  symbols : bool;
  frames : bool;
  differential : bool;
  validity : bool;
}

let all_checks =
  { stops = true; symbols = true; frames = true; differential = true; validity = true }

(** Verify a linked image against its loader-table PostScript.  [tdesc]
    overrides the registered target description (used by tests to seed
    description/artifact skew).  [sources] supplies the original C text
    so the validity check can recompute the dataflow analysis and hold
    the tables to it; without sources only the artifact-level validity
    checks run.  Extraction failures become a single [Table_error]
    finding rather than an exception. *)
let check ?(opts = all_checks) ?tdesc ?(sources = []) (img : Link.image)
    (loader_ps : string) : F.t list =
  let arch = img.Link.i_arch in
  let tdesc = match tdesc with Some t -> t | None -> Target.of_arch arch in
  let out = ref [] in
  (try
     let ps = ps_view_of ~arch loader_ps in
     let cx =
       {
         arch;
         tname = Arch.name arch;
         tdesc;
         img;
         nm = Nm.run img;
         code_base = Ram.Layout.code_base;
         code_end = Ram.Layout.code_base + String.length img.Link.i_code;
         data_base = Ram.Layout.data_base;
         data_end = Ram.Layout.data_base + String.length img.Link.i_data;
         ps;
         out;
       }
     in
     if opts.stops then check_stops cx;
     if opts.symbols then begin
       check_symbols cx;
       check_hints cx
     end;
     if opts.frames then check_frames cx;
     if opts.differential then check_differential cx;
     if opts.validity then begin
       check_validity cx;
       if sources <> [] then check_validity_recompute cx sources
     end
   with
  | Extract m | V.Error (m, _) ->
      out :=
        { F.kind = F.Table_error; target = Arch.name arch; where = "loader-ps"; msg = m }
        :: !out);
  List.rev !out
