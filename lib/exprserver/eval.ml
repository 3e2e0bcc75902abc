(** The debugger's half of expression evaluation (Sec. 3).

    ldb treats each expression as a string: it sends the string to the
    expression server, then interprets PostScript from the pipe until the
    server tells it to stop — [ExpressionServer.result] puts the value on
    the operand stack and stops the interpretation, and
    [ExpressionServer.lookup] requests are answered out of the PostScript
    symbol tables with type and location information. *)

open Ldb_machine
module A = Ldb_amemory.Amemory
module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp
module Chan = Ldb_nub.Chan
module Ldb = Ldb_ldb.Ldb
module Symtab = Ldb_ldb.Symtab

exception Error of string

type session = {
  server : Exprserver.t;
  pipe : Chan.endpoint;  (** ldb's end *)
  arch : Arch.t;
}

let start ~(arch : Arch.t) : session =
  let server, pipe = Exprserver.create ~arch in
  { server; pipe; arch }

(* --- serializing symbol information for the server ------------------------ *)

let subst_decl decl name =
  (* "int %s[20]" -> "int __v[20]" *)
  match String.index_opt decl '%' with
  | Some i when i + 1 < String.length decl && decl.[i + 1] = 's' ->
      String.sub decl 0 i ^ name ^ String.sub decl (i + 2) (String.length decl - i - 2)
  | _ -> decl ^ " " ^ name

let decl_of_type (ty : V.t) =
  match V.dict_get (V.to_dict ty) "decl" with Some d -> V.to_str d | None -> "int %s"

(** Struct name out of a decl like "struct point %s". *)
let struct_name_of_decl decl =
  match String.split_on_char ' ' decl with
  | "struct" :: name :: _ -> Some name
  | _ -> None

(** Feed "T struct point { ... }" definition lines to [emit] for every
    struct reachable from a type dictionary, innermost first. *)
let rec emit_struct_defs ~(emit : string -> unit) ~(visited : (string, unit) Hashtbl.t)
    (ty : V.t) =
  let d = V.to_dict ty in
  (match V.dict_get d "pointee" with
  | Some inner -> emit_struct_defs ~emit ~visited inner
  | None -> ());
  (match V.dict_get d "elemtype" with
  | Some inner -> emit_struct_defs ~emit ~visited inner
  | None -> ());
  match V.dict_get d "fields" with
  | None -> ()
  | Some fields -> (
      match struct_name_of_decl (decl_of_type ty) with
      | None -> ()
      | Some name ->
          if not (Hashtbl.mem visited name) then begin
            Hashtbl.replace visited name ();
            let field_decls =
              Array.to_list (V.to_arr fields)
              |> List.map (fun f ->
                     let fa = V.to_arr f in
                     let fname = V.to_str fa.(0) in
                     let fty = fa.(2) in
                     emit_struct_defs ~emit ~visited fty;
                     subst_decl (decl_of_type fty) fname ^ ";")
            in
            emit (Printf.sprintf "T struct %s { %s }" name (String.concat " " field_decls))
          end)

(** Send the definitions down the pipe, the lookup-reply path. *)
let send_struct_defs (sess : session) ~visited (ty : V.t) =
  emit_struct_defs ~emit:(fun line -> Chan.send sess.pipe (line ^ "\n")) ~visited ty

let locspec_of_location (loc : A.location) : string =
  match loc with
  | A.Absolute { space = 'd'; offset } -> Printf.sprintf "d %d" offset
  | A.Absolute { space = 'c'; offset } -> Printf.sprintf "d %d" offset
  | A.Absolute { space = 'r'; offset } -> Printf.sprintf "r %d" offset
  | A.Absolute { space; _ } -> raise (Error (Printf.sprintf "cannot evaluate in space %c" space))
  | A.Immediate _ -> raise (Error "immediate location in expression")

(* --- the evaluation loop ----------------------------------------------------- *)

(** The pipe as a PostScript file that ends where the buffered bytes do.
    Bytes are peeked a chunk at a time but consumed one by one as the
    interpreter reads them, so whatever it leaves unread stays queued. *)
let drain_file (ep : Chan.endpoint) : V.file =
  let chunk = ref "" and pos = ref 0 in
  V.file_of_fun "%exprpipe" (fun () ->
      if !pos >= String.length !chunk then begin
        chunk := Chan.peek ep 4096;
        pos := 0
      end;
      if !pos >= String.length !chunk then None
      else begin
        let c = !chunk.[!pos] in
        incr pos;
        Chan.skip ep 1;
        Some c
      end)

(** Evaluate [expr] in the context of [fr], returning (formatted value,
    type name). *)
let evaluate (d : Ldb.t) (tg : Ldb.target) (fr : Ldb_ldb.Frame.t) (sess : session)
    (expr : string) : string * string =
  if not (Arch.equal sess.arch tg.Ldb.tg_arch) then
    raise (Error "expression server serves a different architecture");
  Ldb.force_symbols d tg;
  let interp = d.Ldb.interp in
  let result_type = ref "int" in
  let visited = Hashtbl.create 8 in
  (* operators the server-generated PostScript relies on *)
  let ops = V.dict_create () in
  V.dict_put ops "FrameMem" (V.mem fr.Ldb_ldb.Frame.fr_mem);
  V.dict_put ops "FrameBase" (V.int fr.Ldb_ldb.Frame.fr_base);
  V.dict_put ops "ExpressionServer.lookup"
    (V.op "ExpressionServer.lookup" (fun () ->
         let name = I.pop_str interp in
         match Ldb.resolve d tg fr name with
         | None -> Chan.send sess.pipe "U\n"
         | Some entry -> (
             match V.dict_get (V.to_dict entry) "kind" with
             | Some k when V.to_str k = "procedure" -> Chan.send sess.pipe "U\n"
             | _ ->
                 (* the compiler proved no assignment reaches this stop:
                    evaluating the slot would compute on garbage *)
                 (match Ldb.validity_of d tg fr entry with
                 | Some Symtab.Vuninit ->
                     raise (Error (name ^ " is uninitialized at this point"))
                 | _ -> ());
                 let ty =
                   match V.dict_get (V.to_dict entry) "type" with
                   | Some t -> t
                   | None -> raise (Error (name ^ " has no type"))
                 in
                 send_struct_defs sess ~visited ty;
                 let loc = Ldb.location_of d tg fr entry in
                 let decl = subst_decl (decl_of_type ty) "__v" in
                 Chan.send sess.pipe
                   (Printf.sprintf "S var ; %s ; %s\n" decl (locspec_of_location loc)))));
  V.dict_put ops "ExpressionServer.result"
    (V.op "ExpressionServer.result" (fun () ->
         result_type := I.pop_str interp;
         raise I.Stop));
  V.dict_put ops "ExpressionServer.error"
    (V.op "ExpressionServer.error" (fun () ->
         let msg = I.pop_str interp in
         raise (Error msg)));
  let interpret_available () =
    (* interpreting until told to stop: "cvx stopped" applied to the pipe *)
    I.run_file interp (drain_file sess.pipe)
  in
  Ldb.with_target d tg (fun () ->
      I.begin_dict interp ops;
      Fun.protect ~finally:(fun () -> I.end_dict interp) (fun () ->
          Chan.send sess.pipe ("E " ^ expr ^ "\n");
          sess.server.Exprserver.need_input <- interpret_available;
          Exprserver.pump sess.server;
          match interpret_available () with
          | () -> raise (Error "expression server never sent a result")
          | exception I.Stop ->
              let v = I.pop interp in
              let formatted =
                match v.V.v with
                | V.Int n when String.contains !result_type '*' -> Printf.sprintf "0x%x" n
                | _ -> V.to_text v
              in
              (formatted, !result_type)))

(** Convenience: evaluate and discard the type. *)
let eval_string d tg fr sess expr = fst (evaluate d tg fr sess expr)

(* --- compiled breakpoint conditions ------------------------------------------ *)

(** A pseudo-frame for resolving names at a breakpoint address the target
    need not have reached: scope resolution only consults the pc, and a
    base of zero makes a frame-local /where evaluate to its pure frame
    offset should it ever be interpreted. *)
let frame_at (d : Ldb.t) (tg : Ldb.target) ~(addr : int) : Ldb_ldb.Frame.t =
  {
    Ldb_ldb.Frame.fr_pc = addr;
    fr_base = 0;
    fr_sp = 0;
    fr_level = 0;
    fr_mem = tg.Ldb.tg_wire;
    fr_proc = Ldb.proc_entry_at d tg ~pc:addr;
    fr_down = (fun () -> None);
  }

(** Map a symbol entry to the compiler's address kind, keeping frame
    locals {e symbolic}: a stored /where naming FrameLoc carries the
    frame offset as its literal integer, and becomes [Cframe] so the
    condition compiler can form the address from the saved base register
    at any future stop.  Everything else is interpreted now — globals
    and lazy anchors yield absolute addresses, register variables their
    register. *)
let caddr_of_entry (d : Ldb.t) (tg : Ldb.target) (fr : Ldb_ldb.Frame.t) (entry : V.t) :
    Ldb_cc.Sema.caddr option =
  match Symtab.where_of entry with
  | Symtab.Frame off -> Some (Ldb_cc.Sema.Cframe off)
  | _ -> (
      match Ldb.location_of d tg fr entry with
      | A.Absolute { space = 'r'; offset } -> Some (Ldb_cc.Sema.Creg offset)
      | A.Absolute { space = 'd' | 'c'; offset } ->
          Some (Ldb_cc.Sema.Cabs (Int32.of_int offset))
      | _ -> None)

(** Compile [expr] into verified nub bytecode for a breakpoint at
    [addr].  The result is proved safe by {!Ldb_nub.Bpverify} before it
    is returned; on [`Unsupported] the caller may evaluate the same
    condition on the debugger side instead. *)
let compile_condition (d : Ldb.t) (tg : Ldb.target) (sess : session) ~(addr : int)
    (expr : string) :
    ( Ldb_nub.Bpcode.prog,
      [ `Error of string
      | `Unsupported of string
      | `Unverified of Ldb_nub.Bpverify.finding list ] )
    result =
  if not (Arch.equal sess.arch tg.Ldb.tg_arch) then
    Stdlib.Error (`Error "expression server serves a different architecture")
  else begin
    Ldb.force_symbols d tg;
    let fr = frame_at d tg ~addr in
    let visited = Hashtbl.create 8 in
    let lookup name =
      match Ldb.resolve d tg fr name with
      | None -> None
      | Some entry -> (
          match V.dict_get (V.to_dict entry) "kind" with
          | Some k when V.to_str k = "procedure" -> None
          | _ ->
              (* refuse to compile a condition that reads a local the
                 compiler proved uninitialized at this stop: the nub
                 would evaluate garbage on every hit *)
              (match Ldb.validity_of d tg fr entry with
              | Some Symtab.Vuninit ->
                  raise
                    (Bpcompile.Unsupported
                       (name ^ " is uninitialized at this breakpoint"))
              | _ -> ());
              let ty =
                match V.dict_get (V.to_dict entry) "type" with
                | Some t -> t
                | None -> raise (Exprserver.Error (name ^ " has no type"))
              in
              emit_struct_defs
                ~emit:(fun line -> Exprserver.process_typedef sess.server line)
                ~visited ty;
              let cty =
                Exprserver.parse_decl sess.server (subst_decl (decl_of_type ty) "__v")
              in
              (match caddr_of_entry d tg fr entry with
              | Some b_addr -> Some { Ldb_cc.Sema.b_ty = cty; b_addr }
              | None ->
                  raise
                    (Exprserver.Error (name ^ " has no address a condition can use"))))
    in
    let frame_size =
      Ldb_ldb.Frame.frame_size_at (Ldb.make_query d tg) ~pc:addr fr.Ldb_ldb.Frame.fr_proc
    in
    match
      Exprserver.compile_cond sess.server ~tdesc:tg.Ldb.tg_tdesc ~frame_size ~lookup
        expr
    with
    | r -> r
    | exception Ldb.Error m -> Stdlib.Error (`Error m)
    | exception Error m -> Stdlib.Error (`Error m)
  end
