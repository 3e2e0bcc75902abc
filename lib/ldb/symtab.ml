(** Symbol-table management: demand-driven forcing of deferred unit
    bodies, indexed lookup of procedures and stopping points, mapping
    program counters to procedure entries, and resolving names by walking
    the uplink tree (Sec. 2, Sec. 5).

    The paper's debugger "loads symbol tables on demand": a query touches
    only the compilation units it needs.  The top-level units dictionary
    carries demand hints emitted by the compiler — the names and linker
    labels each unit defines, and the source-line range of its stopping
    points — so [proc_by_name], [proc_by_label] and [stops_at_line] force
    exactly one unit in the common case.  Tables without hints still work:
    queries fall back to forcing unforced units one at a time until the
    answer appears.

    Lookup indexes are built incrementally as units are forced: name→proc
    and label→proc hashtables, a per-line stop index, a per-procedure
    sorted pc-interval index (built lazily, since object-code addresses
    require interpreting location procedures), and a per-name cache of
    extern resolutions. *)

module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp

exception Error of string

(** Test/bench observation point: called with the unit's source file name
    immediately before its body is executed. *)
let force_hook : (string -> unit) ref = ref (fun _ -> ())

(* --- stopping points --------------------------------------------------------- *)

type stop = {
  stop_proc : V.t;    (** procedure entry *)
  stop_index : int;   (** index in the loci array *)
  stop_line : int;
  stop_col : int;
  stop_objloc : V.t;  (** procedure computing the object-code location *)
  stop_scope : V.t;   (** symbol entry visible here, or null *)
}

(* --- per-unit state ----------------------------------------------------------- *)

type unit_info = {
  u_file : string;                    (** source file, the forcing key *)
  u_tag : string;
  mutable u_body : V.t;               (** deferred string or procedure;
                                          replaced by the decoded text on
                                          first force of an encoded body *)
  mutable u_encoding : string option; (** [Some "lzw"] until decoded *)
  u_names : string list;              (** demand hints: names defined here *)
  u_labels : string list;             (** their linker labels *)
  u_lines : (int * int) option;       (** line range carrying stops *)
  u_has_hints : bool;                 (** entry carries /names metadata *)
  mutable u_forced : bool;
  mutable u_result : V.dict option;   (** the body's UNITRESULT dictionary,
                                          once forced *)
}

type t = {
  interp : I.t;
  symtab : V.dict;  (** the __symtab dictionary *)
  arch : Ldb_machine.Arch.t;
  units : unit_info list;  (** sorted by file name, for deterministic order *)
  mutable procs_rev : V.t list;  (** procedure entries of forced units,
                                     accumulated in reverse (no quadratic
                                     list append) *)
  mutable externs : (unit_info * V.dict) list;  (** per-unit externs, forced *)
  (* lookup indexes, filled as units are forced *)
  by_name : (string, V.t) Hashtbl.t;
  by_label : (string, V.t) Hashtbl.t;
  by_line : (int, stop list) Hashtbl.t;
  pc_index : (string, (int * stop) array) Hashtbl.t;
      (** proc label -> loci sorted by object-code address *)
  extern_cache : (string, V.t) Hashtbl.t;  (** memoized extern resolutions *)
  frame_descs : (string, Frame.proc_info) Hashtbl.t;
      (** proc label -> what the stack walkers read of it ({!frame_desc}) *)
  quarantined : (string, string) Hashtbl.t;
      (** file -> reason for every unit whose force failed.  A poisoned
          body is never re-executed: a direct force raises the recorded
          reason as a typed {!Error} immediately, and the demand-driven
          search paths route around the unit — so, on a table shared by
          many sessions, a broken unit degrades only the queries that
          actually need it, in every session, without re-forcing. *)
}

let dict_str d key =
  match V.dict_get d key with Some v -> Some (V.to_str v) | None -> None

let dict_int d key =
  match V.dict_get d key with Some v -> Some (V.to_int v) | None -> None

let str_list d key =
  match V.dict_get d key with
  | Some v -> Some (Array.to_list (Array.map V.to_str (V.to_arr v)))
  | None -> None

let unit_of_entry (file : string) (entry : V.t) : unit_info =
  let ed = V.to_dict entry in
  let body =
    match V.dict_get ed "body" with
    | Some b -> b
    | None -> raise (Error ("unit " ^ file ^ " lacks /body"))
  in
  let tag =
    match dict_str ed "tag" with
    | Some tg -> tg
    | None -> raise (Error ("unit " ^ file ^ " lacks /tag"))
  in
  let names = str_list ed "names" in
  let labels = Option.value ~default:[] (str_list ed "labels") in
  let lines =
    match (dict_int ed "minline", dict_int ed "maxline") with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None
  in
  {
    u_file = file;
    u_tag = tag;
    u_body = body;
    u_encoding = dict_str ed "encoding";
    u_names = Option.value ~default:[] names;
    u_labels = labels;
    u_lines = lines;
    u_has_hints = names <> None;
    u_forced = false;
    u_result = None;
  }

let make ~(interp : I.t) ~(symtab_dict : V.dict) : t =
  let arch =
    match dict_str symtab_dict "architecture" with
    | Some a -> (
        match Ldb_machine.Arch.of_name a with
        | Some a -> a
        | None -> raise (Error ("unknown architecture " ^ a)))
    | None -> raise (Error "symbol table lacks /architecture")
  in
  let units =
    match V.dict_get symtab_dict "units" with
    | None -> []
    | Some units ->
        let ud = V.to_dict units in
        Hashtbl.fold (fun file entry acc -> unit_of_entry file entry :: acc) ud.V.tbl []
        |> List.sort (fun a b -> String.compare a.u_file b.u_file)
  in
  {
    interp;
    symtab = symtab_dict;
    arch;
    units;
    procs_rev = [];
    externs = [];
    by_name = Hashtbl.create 64;
    by_label = Hashtbl.create 64;
    by_line = Hashtbl.create 64;
    pc_index = Hashtbl.create 16;
    extern_cache = Hashtbl.create 16;
    frame_descs = Hashtbl.create 16;
    quarantined = Hashtbl.create 4;
  }

(* --- procedure entries ------------------------------------------------------ *)

let entry_name (e : V.t) =
  match V.dict_get (V.to_dict e) "name" with Some n -> V.to_str n | None -> "?"

(* --- decoding symbol-entry fields ---------------------------------------------- *)

(** A stored [/where], decoded by its shape rather than run: the forms
    the compiler emits (lib/cc/psemit.ml).  Running it — what printing
    does — needs a frame and a process; the shape is what checkers,
    indexes and the condition compiler need. *)
type where =
  | Frame of int             (** [{off FrameLoc}]: offset from the frame base *)
  | Anchor of string * int   (** [{(anchor) idx LazyData}]: a unit anchor's slot *)
  | Global of string         (** [{(label) GlobalLoc}]: a data label *)
  | Code of string           (** [{(label) GlobalCodeLoc}]: a code label *)
  | Reg of int               (** a register, located when the table was read *)
  | Nowhere                  (** absent, or no shape the compiler emits *)

(* The field decoders run on every [print]: a missing key answers the
   private [absent] sentinel rather than an option, so they allocate only
   what they return. *)
let absent : V.t = { V.v = V.Null; exec = false }

let field (d : V.dict) (key : string) : V.t =
  match Hashtbl.find d.V.tbl key with v -> v | exception Not_found -> absent

(** Decode a location value: a symbol's [/where] or a locus's object
    location. *)
let where_of_value (w : V.t) : where =
  match w.V.v with
  | V.Loc (Ldb_amemory.Amemory.Absolute { space = 'r'; offset }) -> Reg offset
  | V.Arr [| { V.v = V.Int off; _ }; { V.v = V.Name "FrameLoc"; _ } |] -> Frame off
  | V.Arr [| { V.v = V.Str a; _ }; { V.v = V.Int idx; _ }; { V.v = V.Name "LazyData"; _ } |] ->
      Anchor (a, idx)
  | V.Arr [| { V.v = V.Str l; _ }; { V.v = V.Name "GlobalLoc"; _ } |] -> Global l
  | V.Arr [| { V.v = V.Str l; _ }; { V.v = V.Name "GlobalCodeLoc"; _ } |] -> Code l
  | _ -> Nowhere

(** The decoded [/where] of a symbol entry. *)
let where_of (e : V.t) : where =
  match e.V.v with
  | V.Dict d -> where_of_value (field d "where")
  | _ -> Nowhere

(** The linker label of a procedure entry (its where procedure's
    global-code reference). *)
let proc_label (e : V.t) = match where_of e with Code l -> Some l | _ -> None

let is_int (x : V.t) = match x.V.v with V.Int _ -> true | _ -> false
let int_of (x : V.t) = match x.V.v with V.Int n -> n | _ -> 0

let rec fold_triples f (a : V.t array) acc i =
  if i >= Array.length a then acc
  else fold_triples f a (f acc (int_of a.(i)) (int_of a.(i + 1)) (int_of a.(i + 2))) (i + 3)

(** The one decoder of a symbol entry's [/validity]: a flat
    [lo hi fact ...] array over the procedure's stop indexes (see
    lib/cc/validity.ml).  [fold_validity f init e] folds [f acc lo hi fact]
    over the triples in order: [Some init] when the entry carries no
    ranges, [None] when the key is present but is not a flat array of
    integer triples. *)
let fold_validity (f : 'a -> int -> int -> int -> 'a) (init : 'a) (e : V.t) : 'a option =
  match e.V.v with
  | V.Dict d -> (
      match field d "validity" with
      | v when v == absent -> Some init
      | { V.v = V.Arr a; _ } when Array.length a mod 3 = 0 && Array.for_all is_int a ->
          Some (fold_triples f a init 0)
      | _ -> None)
  | _ -> Some init

(* Brent's cycle check, allocation-free: [mark] is the last dictionary
   marked, re-marked each time [steps] reaches [limit], which then
   doubles; a chain that loops meets its mark again within twice its
   length. *)
let no_mark = V.dict_create ()

let rec walk_scope until f on_loop acc (scope : V.t) mark steps limit =
  if until acc then acc
  else
    match scope.V.v with
    | V.Dict d when d != mark ->
        let acc = f acc scope in
        if steps = limit then walk_scope until f on_loop acc (field d "uplink") d 1 (2 * limit)
        else walk_scope until f on_loop acc (field d "uplink") mark (steps + 1) limit
    | V.Dict _ -> on_loop acc
    | _ -> acc

(** The one walk of a scope chain: [fold_scope ~until f init scope] folds
    [f] over the symbol entries reachable from [scope] through [/uplink],
    innermost first, and stops at [null], at a non-dictionary, as soon
    as [until] holds of the accumulator, or when a hostile chain loops
    back on itself (after visiting some of the loop twice).  A walk that
    ends on a loop returns [on_loop] of its accumulator. *)
let fold_scope ~(until : 'a -> bool) ?(on_loop : 'a -> 'a = Fun.id) (f : 'a -> V.t -> 'a)
    (init : 'a) (scope : V.t) : 'a =
  walk_scope until f on_loop init scope no_mark 1 1

let loci_of (proc_entry : V.t) : V.t array =
  match V.dict_get (V.to_dict proc_entry) "loci" with
  | Some l -> V.to_arr l
  | None -> [||]

let stop_of_locus proc_entry idx (locus : V.t) : stop =
  let a = V.to_arr locus in
  if Array.length a < 4 then raise (Error "malformed locus");
  {
    stop_proc = proc_entry;
    stop_index = idx;
    stop_line = V.to_int a.(0);
    stop_col = V.to_int a.(1);
    stop_objloc = a.(2);
    stop_scope = a.(3);
  }

(** All stopping points of a procedure. *)
let stops_of_proc (proc_entry : V.t) : stop list =
  Array.to_list (Array.mapi (stop_of_locus proc_entry) (loci_of proc_entry))

(* --- variable validity ------------------------------------------------------ *)

(** Compiler-proven validity of a variable at one stopping point, decoded
    from the symbol entry's [/validity] ranges (a flat [lo hi fact ...]
    array over the procedure's stop indexes; see lib/cc/validity.ml). *)
type validity = Vuninit | Vvalid | Vdead

let validity_name = function
  | Vuninit -> "uninit"
  | Vvalid -> "valid"
  | Vdead -> "dead"

(** [validity_at entry ~stop_index] decodes the variable's fact at one
    stop: the first range covering the index decides.  [None] when the
    table carries no ranges for this variable (the analysis did not track
    it), the ranges do not cover the index, or they are malformed — the
    debugger must then assume the value is printable. *)
let validity_at (entry : V.t) ~(stop_index : int) : validity option =
  (* the accumulator is the stop index still sought (>= 0) until a range
     covers it, then [-1 - fact] (a negative fact code decodes to none):
     carrying the index in the accumulator keeps the folded function
     closed, so a [print] allocates no closure here *)
  match
    fold_validity
      (fun acc lo hi fact ->
        if acc >= 0 && acc >= lo && acc <= hi then if fact >= 0 then -1 - fact else min_int
        else acc)
      stop_index entry
  with
  | Some -1 -> Some Vuninit
  | Some -2 -> Some Vvalid
  | Some -3 -> Some Vdead
  | _ -> None

(* --- forcing ----------------------------------------------------------------- *)

(** Static pre-execution check (pslint) of a deferred body: the string is
    verified before it is tokenized and run for the first time, and a unit
    with findings is refused.  Bodies that are already procedures were
    tokenized (and emit-time checked) by the compiler, so only strings are
    checked here. *)
let lint_body ~file (body : V.t) =
  match body.V.v with
  | V.Str src -> (
      match Ldb_pscheck.Pscheck.check_table ~unit_name:file src with
      | [] -> ()
      | msgs ->
          raise (Error (Printf.sprintf "unit %s fails pslint:\n%s" file (String.concat "\n" msgs))))
  | _ -> ()

(** Decode a transfer-encoded body (LZW-compressed deferred string),
    memoizing the decoded text so retries and the tokenization cache see
    the same string. *)
let decoded_body (u : unit_info) : V.t =
  match u.u_encoding with
  | Some "lzw" ->
      let src =
        match u.u_body.V.v with
        | V.Str s -> ( try Ldb_util.Lzw.decompress s
                       with Invalid_argument _ ->
                         raise (Error ("unit " ^ u.u_file ^ ": corrupt lzw body")))
        | _ -> raise (Error ("unit " ^ u.u_file ^ ": encoded body is not a string"))
      in
      u.u_body <- V.str src;
      u.u_encoding <- None;
      u.u_body
  | Some other -> raise (Error ("unit " ^ u.u_file ^ ": unknown body encoding " ^ other))
  | None -> u.u_body

(** A forced unit's procedure entries, in table order ([[]] unforced). *)
let unit_procs (u : unit_info) : V.t list =
  match u.u_result with
  | Some r -> ( match V.dict_get r "procs" with Some ps -> Array.to_list (V.to_arr ps) | None -> [])
  | None -> []

(** Index one newly forced unit's procedures and stopping points. *)
let index_unit (st : t) (procs : V.t list) =
  List.iter
    (fun p ->
      let n = entry_name p in
      if not (Hashtbl.mem st.by_name n) then Hashtbl.replace st.by_name n p;
      (match proc_label p with
      | Some l -> if not (Hashtbl.mem st.by_label l) then Hashtbl.replace st.by_label l p
      | None -> ());
      List.iter
        (fun s ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt st.by_line s.stop_line) in
          Hashtbl.replace st.by_line s.stop_line (prev @ [ s ]))
        (stops_of_proc p))
    procs

(** Force one unit: execute its (decoded) body, collect the unit's result
    dictionary, extend the indexes.  A body that raises leaves the unit
    unforced and the table untouched, and {e quarantines} it: the failure
    reason is recorded, the interpreter's operand stack is restored (a
    body that died halfway may have left garbage on it), and every later
    force of the unit raises the recorded reason immediately instead of
    re-executing the poisoned body.  Requires the architecture dictionary
    on the interpreter's dictionary stack (register locations are
    computed as the table is interpreted). *)
let force_unit_info (st : t) (u : unit_info) =
  if not u.u_forced then begin
    (match Hashtbl.find_opt st.quarantined u.u_file with
    | Some reason -> raise (Error ("unit " ^ u.u_file ^ " is quarantined: " ^ reason))
    | None -> ());
    let saved_ostack = st.interp.I.ostack in
    match
      let body = decoded_body u in
      lint_body ~file:u.u_file body;
      !force_hook u.u_file;
      I.exec_value st.interp (V.cvx body);
      match I.lookup st.interp ("UNITRESULT$" ^ u.u_tag) with
      | Some r -> V.to_dict r
      | None -> raise (Error ("unit " ^ u.u_file ^ " did not define its result"))
    with
    | result ->
        (* only now, with the body fully executed, commit the unit *)
        u.u_forced <- true;
        u.u_result <- Some result;
        let procs = unit_procs u in
        st.procs_rev <- List.rev_append procs st.procs_rev;
        (match V.dict_get result "externs" with
        | Some e -> st.externs <- (u, V.to_dict e) :: st.externs
        | None -> ());
        index_unit st procs
    | exception e ->
        st.interp.I.ostack <- saved_ostack;
        let reason = match e with Error m -> m | e -> Printexc.to_string e in
        Hashtbl.replace st.quarantined u.u_file reason;
        raise (Error ("unit " ^ u.u_file ^ ": " ^ reason))
  end

(** Broken units and why they are quarantined, in file order. *)
let quarantined_units (st : t) : (string * string) list =
  Hashtbl.fold (fun f r acc -> (f, r) :: acc) st.quarantined []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_unit (st : t) ~file =
  match List.find_opt (fun u -> u.u_file = file) st.units with
  | Some u -> u
  | None -> raise (Error ("no unit for source file " ^ file))

(** Force the unit for one source file.  An explicit force is the repair
    path: it lifts any quarantine and re-executes the body — unlike the
    demand-driven lookups, which never retry a quarantined unit. *)
let force_unit (st : t) ~file =
  Hashtbl.remove st.quarantined file;
  force_unit_info st (find_unit st ~file)

(** Force every unit (differential tests, whole-table consumers). *)
let force_all (st : t) = List.iter (force_unit_info st) st.units

(** A forced unit's file-scope statics ([[]] unforced). *)
let unit_statics (u : unit_info) : V.t list =
  match u.u_result with
  | Some r -> (
      match V.dict_get r "statics" with
      | Some s -> Hashtbl.fold (fun _ e acc -> e :: acc) (V.to_dict s).V.tbl []
      | None -> [])
  | None -> []

(** The anchor symbols the table names (its [/anchors]), which the loader
    table must place for the table to match the object code. *)
let anchors (st : t) : string list =
  match V.dict_get st.symtab "anchors" with
  | Some a -> Array.to_list (Array.map V.to_str (V.to_arr a))
  | None -> []

(* --- forcing statistics ------------------------------------------------------ *)

let body_bytes (u : unit_info) =
  match u.u_body.V.v with V.Str s -> String.length s | _ -> 0

let unit_count (st : t) = List.length st.units
let forced_units (st : t) = List.filter_map (fun u -> if u.u_forced then Some u.u_file else None) st.units
let total_bytes (st : t) = List.fold_left (fun a u -> a + body_bytes u) 0 st.units
let forced_bytes (st : t) =
  List.fold_left (fun a u -> if u.u_forced then a + body_bytes u else a) 0 st.units

(** All source files known to this symbol table (available without
    forcing: the units dictionary names them). *)
let source_files (st : t) = List.map (fun u -> u.u_file) st.units

(** All procedure entries, forcing the whole table. *)
let procs (st : t) =
  force_all st;
  List.rev st.procs_rev

(* --- demand-driven lookup ---------------------------------------------------- *)

(** Force units until [found] answers, preferring units whose demand hints
    say they define [key] ([hint] selects the hint list); units without
    hints are tried in file order.  A unit whose force fails (and is
    thereby quarantined) is routed around: the search continues with the
    remaining units, so a broken unit costs only the lookups whose answer
    actually lives inside it. *)
let search_units (st : t) ~(hint : unit_info -> string list) ~(key : string)
    (found : unit -> 'a option) : 'a option =
  match found () with
  | Some _ as r -> r
  | None ->
      let candidates, rest =
        List.partition
          (fun u -> (not u.u_forced) && List.mem key (hint u))
          (List.filter (fun u -> not u.u_forced) st.units)
      in
      let rec try_units = function
        | [] -> None
        | u :: us -> (
            (try force_unit_info st u with Error _ -> ());
            match found () with Some _ as r -> r | None -> try_units us)
      in
      (match try_units candidates with
      | Some _ as r -> r
      | None ->
          (* no (or wrong) hints: fall back to the remaining unforced
             units, hintless ones first (old-style tables) *)
          let hintless, hinted = List.partition (fun u -> not u.u_has_hints) rest in
          try_units (hintless @ hinted))

(** Find a procedure entry by source-level name, forcing (ideally) only
    the unit that defines it. *)
let proc_by_name (st : t) name =
  search_units st ~hint:(fun u -> u.u_names) ~key:name (fun () ->
      Hashtbl.find_opt st.by_name name)

(** Find the procedure entry whose linker label is [label]. *)
let proc_by_label (st : t) label =
  search_units st ~hint:(fun u -> u.u_labels) ~key:label (fun () ->
      Hashtbl.find_opt st.by_label label)

(** Stopping points at a source line.  With [?file] only that unit is
    consulted (and forced); otherwise every unit whose line-range hint
    covers [line] is forced, and hintless units are forced defensively. *)
let stops_at_line ?file (st : t) ~line : stop list =
  (match file with
  | Some f -> force_unit_info st (find_unit st ~file:f)
  | None ->
      List.iter
        (fun u ->
          let covers =
            match u.u_lines with
            | Some (lo, hi) -> line >= lo && line <= hi
            | None -> not u.u_has_hints  (* no hints: must look inside *)
          in
          (* a quarantined unit costs only the lines it covers *)
          if covers then try force_unit_info st u with Error _ -> ())
        st.units);
  let stops = Option.value ~default:[] (Hashtbl.find_opt st.by_line line) in
  match file with
  | None -> stops
  | Some f ->
      List.filter
        (fun s ->
          match V.dict_get (V.to_dict s.stop_proc) "sourcefile" with
          | Some sf -> V.to_str sf = f
          | None -> true)
        stops

(** The entry stopping point of a procedure (its lowest-numbered locus). *)
let entry_stop (st : t) ~name : stop option =
  match proc_by_name st name with
  | None -> None
  | Some p -> ( match stops_of_proc p with s :: _ -> Some s | [] -> None)

(* --- the pc-interval index ---------------------------------------------------- *)

(* [where_of] directly, not [proc_label]: this runs for every frame, and
   the option would be its one allocation *)
let pc_key (proc_entry : V.t) =
  match where_of proc_entry with Code l -> l | _ -> entry_name proc_entry

(** The stopping points of a procedure sorted by object-code address.
    Addresses come from interpreting each locus's location procedure, so
    the caller supplies [addr_of] (with the target dictionaries bound);
    the result is memoized per procedure — the single-step loop and the
    frame walkers hit this on every step. *)
let stop_index (st : t) ~(addr_of : stop -> int) (proc_entry : V.t) : (int * stop) array =
  let key = pc_key proc_entry in
  match Hashtbl.find_opt st.pc_index key with
  | Some a -> a
  | None ->
      let a =
        stops_of_proc proc_entry
        |> List.map (fun s -> (addr_of s, s))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> Array.of_list
      in
      Hashtbl.replace st.pc_index key a;
      a

(** The stack walkers' description of a procedure, decoded by [decode]
    on first use and kept with the table, so every session sharing the
    image shares one.  A decode that raises keeps nothing: the next call
    decodes, and fails, again. *)
let frame_desc (st : t) ~(decode : V.t -> Frame.proc_info) (proc_entry : V.t) :
    Frame.proc_info =
  let key = pc_key proc_entry in
  match Hashtbl.find_opt st.frame_descs key with
  | Some pi -> pi
  | None ->
      let pi = decode proc_entry in
      Hashtbl.replace st.frame_descs key pi;
      pi

(** Addresses of every stopping point of a procedure, ascending. *)
let stop_addresses (st : t) ~addr_of proc_entry : int list =
  Array.to_list (Array.map fst (stop_index st ~addr_of proc_entry))

(** The stopping point governing [pc]: the locus whose address is nearest
    at or below it (binary search over the pc-interval index). *)
let stop_at_pc (st : t) ~addr_of proc_entry ~pc : stop option =
  let idx = stop_index st ~addr_of proc_entry in
  let n = Array.length idx in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let addr, s = idx.(mid) in
      if addr <= pc then search (mid + 1) hi (Some s) else search lo (mid - 1) best
  in
  if n = 0 then None else search 0 (n - 1) None

(* --- name resolution ---------------------------------------------------------- *)

(** Extern lookup across units: consult already-forced units' externs
    first, then force the unit whose hints claim the name, then (last
    resort) the rest of the table.  Hits are cached per name. *)
let resolve_extern (st : t) (name : string) : V.t option =
  match Hashtbl.find_opt st.extern_cache name with
  | Some e -> Some e
  | None ->
      let scan () =
        List.fold_left
          (fun acc (_, d) -> match acc with Some _ -> acc | None -> V.dict_get d name)
          None st.externs
      in
      let r = search_units st ~hint:(fun u -> u.u_names) ~key:name scan in
      (match r with Some e -> Hashtbl.replace st.extern_cache name e | None -> ());
      r

(** Resolve [name] from a stopping point: walk the uplink tree of local
    entries, then the unit's statics, then the program's externs — the
    locals and statics steps need no forcing beyond the unit the stop
    itself came from. *)
let resolve (st : t) (stop : stop option) (name : string) : V.t option =
  let local =
    match stop with
    | Some s ->
        fold_scope ~until:Option.is_some
          (fun _ e ->
            match (field (V.to_dict e) "name").V.v with
            | (V.Str n | V.Name n) when n = name -> Some e
            | _ -> None)
          None s.stop_scope
    | None -> None
  in
  match local with
  | Some e -> Some e
  | None -> (
      (* statics of the stopped procedure's unit *)
      let from_statics =
        match stop with
        | Some s -> (
            match V.dict_get (V.to_dict s.stop_proc) "statics" with
            | Some statics -> V.dict_get (V.to_dict statics) name
            | None -> None)
        | None -> None
      in
      match from_statics with
      | Some e -> Some e
      | None -> resolve_extern st name)
