(** A minimal dbx/gdb-style baseline debugger front end that reads the
    {e binary, machine-dependent} stabs emitted by the compiler
    (lib/cc/stabsemit).

    This exists for the paper's comparisons (Sec. 7):
    - startup time: "dbx: start and read a.out for lcc: 1.5s; gdb: 1.1s"
      versus ldb's PostScript interpretation — reading flat binary records
      is much faster, which T2 reproduces;
    - size: dbx stabs are ~9x smaller than the PostScript tables (T5).

    The cost of the speed is exactly what the paper says: this reader is
    machine-dependent (it bakes in record layout and the meaning of each
    value field) and language-dependent (the type codes are C-specific),
    and it cannot print structured values without knowing C's data layout
    itself. *)

type stab = {
  st_type : int;
  st_desc : int;  (** typically a source line *)
  st_value : int;
  st_name : string;
}

type t = {
  stabs : stab list;
  by_name : (string, stab) Hashtbl.t;
  functions : stab list;
  nlines : int;
}

exception Corrupt of string

(** Parse a raw stabs byte string. *)
let parse (raw : string) : t =
  let open Ldb_util.Bytecodec in
  let c = cursor raw in
  let stabs = ref [] in
  let record () =
    let st_type = u8 c "record header" in
    let st_desc = u16 c "record header" in
    let st_value = u32 c "record header" in
    let st_name = take c (u16 c "record header") "record name" in
    { st_type; st_desc; st_value; st_name }
  in
  while remaining c > 0 do
    match guard record () with
    | Ok s -> stabs := s :: !stabs
    | Error m -> raise (Corrupt m)
  done;
  let stabs = List.rev !stabs in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      (* n_valid records reuse the "name:..." shape but are metadata, not
         the symbol itself — keep them out of the name index *)
      if s.st_type <> Ldb_cc.Stabsemit.n_valid then
        match String.index_opt s.st_name ':' with
        | Some i -> Hashtbl.replace by_name (String.sub s.st_name 0 i) s
        | None -> ())
    stabs;
  let functions = List.filter (fun s -> s.st_type = Ldb_cc.Stabsemit.n_fun) stabs in
  let nlines = List.length (List.filter (fun s -> s.st_type = Ldb_cc.Stabsemit.n_sline) stabs) in
  { stabs; by_name; functions; nlines }

(** "Start and read" an image, like dbx/gdb starting on an a.out. *)
let start (img : Ldb_link.Link.image) : t = parse img.Ldb_link.Link.i_stabs

let find t name = Hashtbl.find_opt t.by_name name

let function_names t =
  List.filter_map
    (fun s -> match String.index_opt s.st_name ':' with
      | Some i -> Some (String.sub s.st_name 0 i)
      | None -> None)
    t.functions

(** Decode a type code back to a display string (machine- and
    C-dependent, unlike ldb's interpreted printers). *)
let rec type_display (code : string) : string =
  if code = "" then "?"
  else
    match code.[0] with
    | 'v' -> "void"
    | 'c' -> "char"
    | 's' -> "short"
    | 'i' -> "int"
    | 'u' -> "unsigned"
    | 'f' -> "float"
    | 'd' -> "double"
    | 'x' -> "long double"
    | '*' -> type_display (String.sub code 1 (String.length code - 1)) ^ " *"
    | 'S' -> "struct " ^ String.sub code 1 (String.length code - 1)
    | 'F' -> type_display (String.sub code 1 (String.length code - 1)) ^ " ()"
    | 'a' -> (
        match String.index_opt code ',' with
        | Some i ->
            let count = String.sub code 1 (i - 1) in
            type_display (String.sub code (i + 1) (String.length code - i - 1))
            ^ "[" ^ count ^ "]"
        | None -> "array")
    | _ -> "?"

let sym_type_display (s : stab) =
  match String.index_opt s.st_name ':' with
  | Some i -> type_display (String.sub s.st_name (i + 1) (String.length s.st_name - i - 1))
  | None -> "?"

(* --- grouping views (used by dbgcheck's differential pass) ----------------- *)

let stab_name (s : stab) =
  match String.index_opt s.st_name ':' with
  | Some i -> String.sub s.st_name 0 i
  | None -> s.st_name

(** One function's records: the [n_fun] stab, the symbol stabs that follow
    it, its [n_sline] stopping points (desc = line, value = anchor slot
    index), and its [n_valid] validity-range records. *)
type func_view = {
  fv_fun : stab;
  fv_syms : stab list;
  fv_slines : stab list;
  fv_valid : stab list;
}

(** Decode an [n_valid] record: "name:lo-hi=f,..." with f in {u,v,d}
    (0/1/2).  [None] if the record is malformed. *)
let parse_valid (s : stab) : (string * (int * int * int) list) option =
  match String.index_opt s.st_name ':' with
  | None -> None
  | Some i -> (
      let name = String.sub s.st_name 0 i in
      let rest = String.sub s.st_name (i + 1) (String.length s.st_name - i - 1) in
      try
        let ranges =
          List.map
            (fun part ->
              Scanf.sscanf part "%d-%d=%c" (fun lo hi c ->
                  let f =
                    match c with
                    | 'u' -> 0
                    | 'v' -> 1
                    | 'd' -> 2
                    | _ -> raise Exit
                  in
                  (lo, hi, f)))
            (String.split_on_char ',' rest)
        in
        Some (name, ranges)
      with _ -> None)

(** One compilation unit: everything between an [n_so] record and the
    next.  Symbols appearing before the first function are unit-level
    (statics and globals). *)
type unit_view = {
  uv_name : string;
  uv_toplevel : stab list;
  uv_funcs : func_view list;
}

(** Split a parsed table into per-unit, per-function views, preserving
    record order.  This is the structural inverse of
    [Stabsemit.emit_unit]. *)
let units (t : t) : unit_view list =
  let module S = Ldb_cc.Stabsemit in
  let finish_func uf syms slines valid funcs =
    match uf with
    | None -> funcs
    | Some f ->
        {
          fv_fun = f;
          fv_syms = List.rev syms;
          fv_slines = List.rev slines;
          fv_valid = List.rev valid;
        }
        :: funcs
  in
  let finish_unit cur top uf syms slines valid funcs units =
    match cur with
    | None -> units
    | Some name ->
        let top = if uf = None then List.rev_append syms top else top in
        {
          uv_name = name;
          uv_toplevel = List.rev top;
          uv_funcs = List.rev (finish_func uf syms slines valid funcs);
        }
        :: units
  in
  let rec go cur top uf syms slines valid funcs units = function
    | [] -> List.rev (finish_unit cur top uf syms slines valid funcs units)
    | s :: rest ->
        if s.st_type = S.n_so then
          let units = finish_unit cur top uf syms slines valid funcs units in
          go (Some s.st_name) [] None [] [] [] [] units rest
        else if s.st_type = S.n_fun then
          let funcs = finish_func uf syms slines valid funcs in
          let top = if uf = None then List.rev_append syms top else top in
          go cur top (Some s) [] [] [] funcs units rest
        else if s.st_type = S.n_sline then go cur top uf syms (s :: slines) valid funcs units rest
        else if s.st_type = S.n_valid then go cur top uf syms slines (s :: valid) funcs units rest
        else go cur top uf (s :: syms) slines valid funcs units rest
  in
  go None [] None [] [] [] [] [] t.stabs
