(** Positioned abstract syntax for the static checker (pslint).

    The checker re-scans source with the dialect's own tokenizer
    ([Ldb_pscript.Scan]) but keeps every token's line/column so findings can
    name the exact spot.  Procedure bodies get a unique id so the abstract
    interpreter can memoize analyses and guard against recursion. *)

open Ldb_pscript

type node = { it : item; line : int; col : int }

and item =
  | PInt of int
  | PReal of float
  | PStr of string
  | PLitName of string   (** /name *)
  | PExecName of string
  | PProc of proc

and proc = { body : node list; proc_id : int }

(** Scan a whole file into a positioned token tree.  Raises [Value.Error]
    with a syntaxerror on malformed input, like the interpreter would. *)
let parse_file (f : Value.file) : node list =
  let next_id = ref 0 in
  let rec seq ~in_proc acc =
    match Scan.token f with
    | Scan.TEof ->
        if in_proc then Value.err "syntaxerror" "unterminated procedure"
        else List.rev acc
    | Scan.TProcEnd ->
        if in_proc then List.rev acc else Value.err "syntaxerror" "unmatched }"
    | tok ->
        let line, col = Value.file_token_pos f in
        let it =
          match tok with
          | Scan.TNum v -> (
              match v.Value.v with
              | Value.Int n -> PInt n
              | Value.Real r -> PReal r
              | _ -> assert false)
          | Scan.TStr s -> PStr s
          | Scan.TName (n, true) -> PLitName n
          | Scan.TName (n, false) -> PExecName n
          | Scan.TProcStart ->
              incr next_id;
              let id = !next_id in
              PProc { body = seq ~in_proc:true []; proc_id = id }
          | Scan.TEof | Scan.TProcEnd -> assert false
        in
        seq ~in_proc ({ it; line; col } :: acc)
  in
  seq ~in_proc:false []

(** Every procedure literal in a program, outermost first. *)
let all_procs (prog : node list) : proc list =
  let acc = ref [] in
  let rec node n = match n.it with PProc p -> proc p | _ -> ()
  and proc p =
    acc := p :: !acc;
    List.iter node p.body
  in
  List.iter node prog;
  List.rev !acc
