(** The embedded PostScript interpreter (Sec. 2, Sec. 5).

    One interpreter instance supports everything: symbol tables, printing
    procedures, expression evaluation, and the loader table.  The
    dictionary stack is explicitly controlled by PostScript programs; ldb
    rebinds machine-dependent names when it changes architectures simply by
    placing a per-target dictionary on this stack. *)

open Value

exception Stop
exception Exit_loop
exception Quit

type cached_program = (Value.t * int * int) array
(** A string scanned once: top-level tokens (procedures already collected)
    paired with the source position of each, for error annotation. *)

type t = {
  mutable ostack : Value.t list;
  mutable dstack : Value.dict list;  (** top first; bottom is systemdict *)
  systemdict : Value.dict;
  userdict : Value.dict;
  out : Buffer.t;        (** destination of print/Put *)
  pp : Pp.t;
  mutable deferred_tokens : int;  (** statistics: tokens scanned lazily *)
  mutable registered : string list;  (** systemdict operator names, reverse registration order *)
  progcache : (string, cached_program) Hashtbl.t;
      (** tokenization cache: string body -> scanned program, so deferred
          symbol-table bodies and repeated [run_string]s scan once *)
  mutable scan_hits : int;    (** statistics: cache hits *)
  mutable scan_misses : int;  (** statistics: strings actually scanned *)
}

(** Past this many distinct strings the cache is emptied rather than grown
    (the expression server evaluates an unbounded stream of small one-shot
    strings; symbol-table bodies are few and large). *)
let progcache_limit = 512

let create_raw () =
  let systemdict = dict_create () in
  let userdict = dict_create () in
  let out = Buffer.create 1024 in
  {
    ostack = [];
    dstack = [ userdict; systemdict ];
    systemdict;
    userdict;
    out;
    pp = Pp.create out;
    deferred_tokens = 0;
    registered = [];
    progcache = Hashtbl.create 64;
    scan_hits = 0;
    scan_misses = 0;
  }

(* --- operator registration ------------------------------------------------ *)

(** Install a builtin in systemdict.  Registration is collision-safe: a
    duplicate name is a bug in the installer (the second definition would
    silently shadow the first), so it fails fast. *)
let register t name v =
  if dict_mem t.systemdict name then
    invalid_arg ("duplicate operator registration: " ^ name)
  else begin
    dict_put t.systemdict name v;
    (match v.Value.v with Value.Op _ -> t.registered <- name :: t.registered | _ -> ())
  end

let register_op t name f = register t name (Value.op name f)

(** Every operator registered so far, in registration order.  The static
    checker's signature table is tested for exhaustiveness against this. *)
let registered_ops t = List.rev t.registered

(* --- operand stack ------------------------------------------------------ *)

let push t v = t.ostack <- v :: t.ostack

let pop t =
  match t.ostack with
  | v :: rest ->
      t.ostack <- rest;
      v
  | [] -> err "stackunderflow" "pop on empty stack"

let peek t = match t.ostack with v :: _ -> v | [] -> err "stackunderflow" "empty stack"

let pop_int t = to_int (pop t)
let pop_float t = to_float (pop t)
let pop_bool t = to_bool (pop t)
let pop_str t = to_str (pop t)
let pop_dict t = to_dict (pop t)
let pop_mem t = to_mem (pop t)
let pop_loc t = to_loc (pop t)

let depth t = List.length t.ostack

(* --- dictionary stack ---------------------------------------------------- *)

let lookup t (n : string) : Value.t option =
  let rec go = function
    | [] -> None
    | d :: rest -> ( match dict_get d n with Some v -> Some v | None -> go rest)
  in
  go t.dstack

let lookup_exn t n =
  match lookup t n with Some v -> v | None -> err "undefined" n

let current_dict t = match t.dstack with d :: _ -> d | [] -> assert false

let define t n v = dict_put (current_dict t) n v

let begin_dict t d = t.dstack <- d :: t.dstack

let end_dict t =
  match t.dstack with
  | _ :: (_ :: _ :: _ as rest) -> t.dstack <- rest
  | _ -> err "dictstackunderflow" "end"

(* --- execution ------------------------------------------------------------ *)

let rec exec_value t (v : Value.t) =
  if not v.exec then push t v
  else
    match v.v with
    | Name n -> exec_value t (lookup_exn t n)
    | Op (_, f) -> f ()
    | Arr elems -> exec_proc t elems
    | Str s -> exec_string t "%string" s
    | File f -> run_file t f
    | Int _ | Real _ | Bool _ | Dict _ | Mark | Null | Mem _ | Loc _ -> push t v

(** Execute the body of a procedure: nested procedures are pushed, not
    executed. *)
and exec_proc t (elems : Value.t array) =
  Array.iter
    (fun (o : Value.t) ->
      match o.v with
      | Arr _ when o.exec -> push t o
      | _ -> if o.exec then exec_value t o else push t o)
    elems

(** Scan and execute tokens from a file until end of stream.  [Stop]
    propagates to the caller ([stopped] catches it), which is how the
    expression server tells ldb to stop listening to the pipe.

    Errors raised while executing a token are annotated with the position
    of the token that triggered them, so a runtime [typecheck] names a
    source location and not just an operator. *)
and run_file t (f : Value.file) =
  let continue_ = ref true in
  while !continue_ do
    match Scan.token f with
    | Scan.TEof -> continue_ := false
    | tok -> (
        try exec_token t f tok
        with Error (name, detail) when not (has_position detail) ->
          let line, col = Value.file_token_pos f in
          raise (Error (name, Printf.sprintf "%s [%s:%d:%d]" detail f.Value.file_name line col)))
  done

and has_position detail =
  (* already annotated by an inner (e.g. deferred-string) interpretation *)
  let n = String.length detail in
  let rec go i = i < n - 1 && ((detail.[i] = ' ' && detail.[i + 1] = '[') || go (i + 1)) in
  go 0

and exec_token t f (tok : Scan.token) =
  match tok with
  | Scan.TEof -> ()
  | Scan.TNum v -> push t v
  | Scan.TStr s -> push t (str s)
  | Scan.TName (n, true) -> push t (name_lit n)
  | Scan.TName (n, false) -> exec_value t (name_exec n)
  | Scan.TProcStart -> push t (collect_proc t f)
  | Scan.TProcEnd -> err "syntaxerror" "unmatched }"

(** Build a procedure object from tokens up to the matching [}]. *)
and collect_proc t f : Value.t =
  let items = ref [] in
  let rec go () =
    match Scan.token f with
    | Scan.TEof -> err "syntaxerror" "unterminated procedure"
    | Scan.TProcEnd -> ()
    | Scan.TProcStart ->
        items := collect_proc t f :: !items;
        go ()
    | Scan.TNum v ->
        items := v :: !items;
        go ()
    | Scan.TStr s ->
        items := str s :: !items;
        go ()
    | Scan.TName (n, true) ->
        items := name_lit n :: !items;
        go ()
    | Scan.TName (n, false) ->
        items := name_exec n :: !items;
        go ()
  in
  go ();
  proc (Array.of_list (List.rev !items))

(** Scan a whole string into its top-level token sequence, collecting
    procedures, without executing anything.  Each token keeps the position
    of its first character for later error annotation. *)
and scan_program t (f : Value.file) : cached_program =
  let items = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Scan.token f with
    | Scan.TEof -> continue_ := false
    | tok ->
        let line, col = Value.file_token_pos f in
        let v =
          match tok with
          | Scan.TEof -> assert false
          | Scan.TNum v -> v
          | Scan.TStr s -> str s
          | Scan.TName (n, true) -> name_lit n
          | Scan.TName (n, false) -> name_exec n
          | Scan.TProcStart -> collect_proc t f
          | Scan.TProcEnd -> err "syntaxerror" "unmatched }"
        in
        items := (v, line, col) :: !items
  done;
  Array.of_list (List.rev !items)

(** Execute a scanned program, annotating errors with the recorded token
    positions (the same annotation [run_file] produces while scanning). *)
and exec_program t ~(name : string) (prog : cached_program) =
  Array.iter
    (fun ((v : Value.t), line, col) ->
      try
        match v.v with
        | Arr _ when v.exec -> push t v (* top-level procedures are pushed *)
        | _ -> if v.exec then exec_value t v else push t v
      with Error (en, detail) when not (has_position detail) ->
        raise (Error (en, Printf.sprintf "%s [%s:%d:%d]" detail name line col)))
    prog

(** The tokenization cache: scan [s] once and reuse the token array across
    re-executions (deferred unit bodies, repeated [run_string]s). *)
and program_of_string t ~(name : string) (s : string) : cached_program =
  match Hashtbl.find_opt t.progcache s with
  | Some p ->
      t.scan_hits <- t.scan_hits + 1;
      p
  | None ->
      t.scan_misses <- t.scan_misses + 1;
      let p = scan_program t (file_of_string name s) in
      if Hashtbl.length t.progcache >= progcache_limit then Hashtbl.reset t.progcache;
      Hashtbl.replace t.progcache s p;
      t.deferred_tokens <- t.deferred_tokens + Array.length p;
      p

and exec_string t (name : string) (s : string) =
  exec_program t ~name (program_of_string t ~name s)

let run_string t (s : string) = exec_string t "%string" s

(** Tokenization-cache statistics: (hits, misses). *)
let scan_stats t = (t.scan_hits, t.scan_misses)

(** Drain accumulated print output. *)
let take_output t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  t.pp.Pp.column <- 0;
  s
