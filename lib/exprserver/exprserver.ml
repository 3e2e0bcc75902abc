(** The expression server (Sec. 3, Fig. 3): a variant of the compiler front
    end, living in its own address space and talking to ldb over a pair of
    pipes.

    To evaluate an expression, ldb sends the text; the server parses,
    type-checks and produces an IR tree, rewriting it into a PostScript
    procedure.  When the server fails to find an identifier it does not
    stop: it sends "/name ExpressionServer.lookup" back to ldb, ldb
    interprets that (finding the PostScript symbol-table entry and
    replying with type and location information in C-token form), and the
    server reconstructs the symbol entry on the fly.

    Per the paper, the server discards reconstructed symbol entries after
    each expression but keeps type (struct) information until the
    debugger switches programs. *)

open Ldb_machine
module Chan = Ldb_nub.Chan

exception Error of string

type t = {
  arch : Arch.t;
  ep : Chan.endpoint;  (** the server's end of the pipe pair *)
  structs : (string, Ldb_cc.Ctype.struct_def) Hashtbl.t;  (** kept across expressions *)
  mutable bindings : (string * Ldb_cc.Sema.binding) list;  (** discarded after each one *)
  mutable need_input : unit -> unit;
      (** invoked when the server must wait for ldb (lookup replies) *)
}

(** Create a server and return it with the debugger's pipe end. *)
let create ~(arch : Arch.t) : t * Chan.endpoint =
  let ldb_end, srv_end = Chan.pair ~labels:("ldb", "exprserver") () in
  ( { arch; ep = srv_end; structs = Hashtbl.create 8; bindings = [];
      need_input = (fun () -> ()) },
    ldb_end )

(* --- line IO over the pipe ---------------------------------------------- *)

(** Read one line, waiting on ldb whenever the pipe runs dry.  Bytes are
    taken a chunk at a time; nothing past the newline is consumed. *)
let read_line_blocking (s : t) : string =
  let buf = Buffer.create 64 in
  let rec go () =
    if Chan.available s.ep = 0 then begin
      s.need_input ();
      if Chan.available s.ep = 0 then raise (Error "expression server: ldb went away")
    end;
    let chunk = Chan.peek s.ep 256 in
    match String.index_opt chunk '\n' with
    | Some i ->
        Buffer.add_substring buf chunk 0 i;
        Chan.skip s.ep (i + 1);
        Buffer.contents buf
    | None ->
        Buffer.add_string buf chunk;
        Chan.skip s.ep (String.length chunk);
        go ()
  in
  go ()

let send s line = Chan.send s.ep (line ^ "\n")

(* --- symbol reconstruction ------------------------------------------------ *)

(** Parse a C type declaration such as "int __v[20]" or "struct point *__v"
    using the compiler's own parser, against the server's struct table. *)
let parse_decl (s : t) (decl : string) : Ldb_cc.Ctype.t =
  let toks = Ldb_cc.Lex.all decl in
  let st = Ldb_cc.Parse.make toks in
  Hashtbl.iter (fun k v -> Hashtbl.replace st.Ldb_cc.Parse.structs k v) s.structs;
  let base = Ldb_cc.Parse.base_type st s.arch in
  (* pull any newly completed struct definitions back into our table *)
  Hashtbl.iter (fun k v -> Hashtbl.replace s.structs k v) st.Ldb_cc.Parse.structs;
  let _, ty = Ldb_cc.Parse.declarator st s.arch base in
  ty

(** Process a struct-definition line: "T struct point { int x; int y; }". *)
let process_typedef (s : t) (line : string) =
  let body = String.sub line 2 (String.length line - 2) in
  let toks = Ldb_cc.Lex.all body in
  let st = Ldb_cc.Parse.make toks in
  Hashtbl.iter (fun k v -> Hashtbl.replace st.Ldb_cc.Parse.structs k v) s.structs;
  ignore (Ldb_cc.Parse.base_type st s.arch);
  Hashtbl.iter (fun k v -> Hashtbl.replace s.structs k v) st.Ldb_cc.Parse.structs

let parse_locspec (spec : string) : Ldb_cc.Sema.caddr =
  match String.split_on_char ' ' (String.trim spec) with
  | [ "d"; addr ] -> Ldb_cc.Sema.Cabs (Int32.of_string addr)
  | [ "r"; reg ] -> Ldb_cc.Sema.Creg (int_of_string reg)
  | [ "imm"; v ] -> Ldb_cc.Sema.Cabs (Int32.of_string v)
  | _ -> raise (Error ("bad location spec " ^ spec))

(** Ask ldb about an identifier; block (pumping ldb) for the reply. *)
let remote_lookup (s : t) (name : string) : Ldb_cc.Sema.binding option =
  send s (Printf.sprintf "/%s ExpressionServer.lookup" name);
  let rec read_reply () =
    let line = read_line_blocking s in
    if String.length line >= 2 && String.sub line 0 2 = "T " then begin
      process_typedef s line;
      read_reply ()
    end
    else if line = "U" then None
    else if String.length line >= 2 && String.sub line 0 2 = "S " then begin
      (* "S var ; int __v[20] ; d 1049600" *)
      match String.split_on_char ';' (String.sub line 2 (String.length line - 2)) with
      | [ _kind; decl; locspec ] ->
          let ty = parse_decl s (String.trim decl) in
          let addr = parse_locspec locspec in
          Some { Ldb_cc.Sema.b_ty = ty; b_addr = addr }
      | _ -> raise (Error ("bad lookup reply " ^ line))
    end
    else raise (Error ("bad lookup reply " ^ line))
  in
  read_reply ()

let lookup (s : t) (name : string) : Ldb_cc.Sema.binding option =
  match List.assoc_opt name s.bindings with
  | Some b -> Some b
  | None -> (
      match remote_lookup s name with
      | Some b ->
          s.bindings <- (name, b) :: s.bindings;
          Some b
      | None -> None)

(* --- evaluation ------------------------------------------------------------- *)

let ectx (s : t) : Ldb_cc.Sema.ectx =
  {
    Ldb_cc.Sema.e_arch = s.arch;
    e_lookup = (fun n -> lookup s n);
    e_func_ty = (fun _ -> None);
    e_string = (fun _ -> raise (Error "string literals are not supported in expressions"));
    e_emit = None;
    e_temp = None;
    e_label = None;
  }

let parse_with_structs (s : t) (text : string) : Ldb_cc.Ast.expr =
  let st = Ldb_cc.Parse.make (Ldb_cc.Lex.all text) in
  Hashtbl.iter (fun k v -> Hashtbl.replace st.Ldb_cc.Parse.structs k v) s.structs;
  let e = Ldb_cc.Parse.expression st s.arch in
  (match (Ldb_cc.Parse.peek st).Ldb_cc.Lex.tok with
  | Ldb_cc.Lex.Teof | Ldb_cc.Lex.Tpunct ";" -> ()
  | _ -> raise (Ldb_cc.Parse.Error ("trailing tokens after expression", Ldb_cc.Parse.pos st)));
  e

(** Static check (pslint) of compiled expression code before it ships:
    a finding here is a rewriter bug, reported to ldb like any other
    expression error instead of crashing the debugger's interpreter. *)
let lint_expression (ps : string) : string option =
  let env = Ldb_pscheck.Pscheck.debugger_env () in
  match Ldb_pscheck.Pscheck.check_program ~env ~deep:true ~name:"%expr" ps with
  | [] -> None
  | fs ->
      Some
        (String.concat "; "
           (List.map (Ldb_util.Posfinding.to_string Ldb_pscheck.Lattice.kind_name) fs))

(** Handle one expression request: parse, translate, rewrite, reply. *)
let serve_expression (s : t) (text : string) =
  match
    let ast = parse_with_structs s text in
    let ir, ty = Ldb_cc.Sema.rvalue (ectx s) ast in
    (Rewrite.rewrite ir, Ldb_cc.Ctype.to_string ty)
  with
  | ps, tyname -> (
      (match lint_expression ps with
      | None ->
          send s ps;
          send s
            (Printf.sprintf "(%s) ExpressionServer.result" (Ldb_cc.Psemit.ps_escape tyname))
      | Some msg ->
          send s
            (Printf.sprintf "(compiled expression fails pslint: %s) ExpressionServer.error"
               (Ldb_cc.Psemit.ps_escape msg)));
      s.bindings <- [])
  | exception Ldb_cc.Parse.Error (m, _) ->
      send s (Printf.sprintf "(parse error: %s) ExpressionServer.error" (Ldb_cc.Psemit.ps_escape m));
      s.bindings <- []
  | exception Ldb_cc.Lex.Error (m, _) ->
      send s (Printf.sprintf "(lexical error: %s) ExpressionServer.error" (Ldb_cc.Psemit.ps_escape m));
      s.bindings <- []
  | exception Ldb_cc.Sema.Error (m, _) ->
      send s (Printf.sprintf "(%s) ExpressionServer.error" (Ldb_cc.Psemit.ps_escape m));
      s.bindings <- []
  | exception Rewrite.Unsupported m ->
      send s (Printf.sprintf "(%s) ExpressionServer.error" (Ldb_cc.Psemit.ps_escape m));
      s.bindings <- []
  | exception Error m ->
      send s (Printf.sprintf "(%s) ExpressionServer.error" (Ldb_cc.Psemit.ps_escape m));
      s.bindings <- []

(* --- breakpoint conditions ------------------------------------------------- *)

(** An evaluation context over a caller-supplied symbol resolver — the
    condition compiler bypasses the pipe protocol: the debugger is in
    the same process and answers lookups directly, with frame locals
    kept symbolic (as frame offsets) rather than flattened to the
    current stop's addresses. *)
let cond_ectx (s : t) (lookup : string -> Ldb_cc.Sema.binding option) : Ldb_cc.Sema.ectx =
  {
    Ldb_cc.Sema.e_arch = s.arch;
    e_lookup = lookup;
    e_func_ty = (fun _ -> None);
    e_string = (fun _ -> raise (Error "string literals are not supported in conditions"));
    e_emit = None;
    e_temp = None;
    e_label = None;
  }

(** Compile a breakpoint condition to verified nub bytecode.

    The pipeline is the expression server's own front half — parse
    against the retained struct table, type-check and translate with
    {!Ldb_cc.Sema.rvalue} — with {!Bpcompile} as the back end and
    {!Ldb_nub.Bpverify} as the gate: a program the verifier rejects is
    {e never returned}, so nothing unproved can reach the wire.
    [frame_size] is the bias from the saved base register to the frame
    base at the breakpoint's pc (nonzero only on SIM-MIPS, whose frame
    base is virtual).

    Errors are typed: [`Unsupported] names a construct that cannot run
    on the nub (the caller may fall back to debugger-side evaluation),
    [`Unverified] carries the verifier's findings (a compiler bug or a
    hostile program — there is no fallback that would make it safe),
    and [`Error] covers parse and type failures. *)
let compile_cond (s : t) ~(tdesc : Target.t) ~(frame_size : int)
    ~(lookup : string -> Ldb_cc.Sema.binding option) (text : string) :
    ( Ldb_nub.Bpcode.prog,
      [ `Error of string
      | `Unsupported of string
      | `Unverified of Ldb_nub.Bpverify.finding list ] )
    result =
  let base, bias =
    match tdesc.Target.fp with
    | Some fp -> (fp, 0)
    | None -> (tdesc.Target.sp, frame_size)
  in
  let finish r =
    s.bindings <- [];
    r
  in
  match
    let ast = parse_with_structs s text in
    let ir, _ty = Ldb_cc.Sema.rvalue (cond_ectx s lookup) ast in
    let prog = Bpcompile.compile_prog ~base ~bias ir in
    if
      Array.length prog > Ldb_nub.Bpcode.max_insns
      || String.length (Ldb_nub.Bpcode.encode prog) > Ldb_nub.Bpcode.max_prog_bytes
    then None
    else Some prog
  with
  | None -> finish (Stdlib.Error (`Unsupported "condition compiles to too large a program"))
  | Some prog ->
      finish
        (match Ldb_nub.Bpverify.verify tdesc prog with
        | [] -> Stdlib.Ok prog
        | findings -> Stdlib.Error (`Unverified findings))
  | exception Ldb_nub.Bpcode.Encode_error m ->
      finish (Stdlib.Error (`Unsupported ("condition does not encode: " ^ m)))
  | exception Ldb_cc.Parse.Error (m, _) -> finish (Stdlib.Error (`Error ("parse error: " ^ m)))
  | exception Ldb_cc.Lex.Error (m, _) -> finish (Stdlib.Error (`Error ("lexical error: " ^ m)))
  | exception Ldb_cc.Sema.Error (m, _) -> finish (Stdlib.Error (`Error m))
  | exception Bpcompile.Unsupported m -> finish (Stdlib.Error (`Unsupported m))
  | exception Error m -> finish (Stdlib.Error (`Error m))

(** Process one pending request if any bytes are waiting. *)
let pump (s : t) =
  while Chan.available s.ep > 0 do
    let line = read_line_blocking s in
    if String.length line >= 2 && String.sub line 0 2 = "E " then
      serve_expression s (String.sub line 2 (String.length line - 2))
    else if line = "" then ()
    else raise (Error ("expression server: bad request " ^ line))
  done
