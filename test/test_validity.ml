(** Variable-validity ranges, end to end: the debugger-visible behavior
    (a typed [<... uninitialized at this point>] instead of garbage, an
    expression-server refusal, an [`Unsupported] condition verdict) and
    the {e dynamic soundness differential}: run real programs on all four
    simulated targets, poke a sentinel into every frame-local slot at
    function entry, stop at every executed stopping point, and check that
    nothing the symbol table calls [Valid] is ever observed still holding
    the sentinel — and that everything it calls [Uninit] prints the
    warning.  This pits the compiler's static claim against the machine's
    actual trace. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Symtab = Ldb_ldb.Symtab
module Frame = Ldb_ldb.Frame
module Breakpoint = Ldb_ldb.Breakpoint
module A = Ldb_amemory.Amemory
module V = Ldb_pscript.Value
module Eval = Ldb_exprserver.Eval

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- the debugger-visible contract ------------------------------------------- *)

let work_src =
  {|
int work(int n)
{
    int x;
    int y;
    y = n + 1;
    x = y * 2;
    return x + y;
}
int main(void) { return work(5); }
|}

(* line 6 is "y = n + 1": at its stopping point neither x nor y has been
   assigned yet; at line 7 ("x = y * 2") y is valid, x still is not *)

let session_at arch line =
  let s = Testkit.debug_session ~arch [ ("t.c", work_src) ] in
  ignore (Ldb.break_line s.Testkit.d s.Testkit.tg ~line);
  (match Ldb.continue_ s.Testkit.d s.Testkit.tg with
  | Ok (Ldb.Stopped _) -> ()
  | _ -> Alcotest.fail "did not stop at breakpoint");
  (s, Ldb.top_frame s.Testkit.d s.Testkit.tg)

let vname = function
  | Some v -> Symtab.validity_name v
  | None -> "none"

let test_print_uninit_warns () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s, fr = session_at arch 6 in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      check Alcotest.string (an ^ " x fact") "uninit"
        (vname (Ldb.variable_validity d tg fr "x"));
      check Alcotest.string (an ^ " y fact") "uninit"
        (vname (Ldb.variable_validity d tg fr "y"));
      (* params are untracked: no claim, printable *)
      check Alcotest.string (an ^ " n fact") "none"
        (vname (Ldb.variable_validity d tg fr "n"));
      check Alcotest.string (an ^ " print x") "<int x: uninitialized at this point>"
        (Ldb.print_value d tg fr "x");
      (* the value is reachable once the compiler can prove the write *)
      let s2, fr2 = session_at arch 8 in
      check Alcotest.string (an ^ " y fact at line 8") "valid"
        (vname (Ldb.variable_validity s2.Testkit.d s2.Testkit.tg fr2 "y"));
      check Alcotest.string (an ^ " print y at line 8") "6"
        (Ldb.print_value s2.Testkit.d s2.Testkit.tg fr2 "y"))
    Arch.all

let test_evaluate_refuses_uninit () =
  let arch = Arch.Sparc in
  let s, fr = session_at arch 6 in
  let sess = Eval.start ~arch in
  (match Eval.eval_string s.Testkit.d s.Testkit.tg fr sess "x + 1" with
  | v -> Alcotest.failf "evaluated uninitialized x to %s" v
  | exception Eval.Error m ->
      Alcotest.(check bool) "typed refusal" true
        (contains m "uninitialized"));
  (* the same server session still answers valid queries *)
  check Alcotest.string "n still evaluates" "5"
    (Eval.eval_string s.Testkit.d s.Testkit.tg fr sess "n")

let test_condition_refuses_uninit () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s, _fr = session_at arch 6 in
      let sess = Eval.start ~arch in
      let addr =
        match Ldb.break_line s.Testkit.d s.Testkit.tg ~line:6 with
        | a :: _ -> a
        | [] -> Alcotest.fail "no stopping point at line 6"
      in
      (match
         Eval.compile_condition s.Testkit.d s.Testkit.tg sess ~addr "x > 0"
       with
      | Error (`Unsupported m) ->
          Alcotest.(check bool) (an ^ " typed unsupported") true
            (contains m "uninitialized")
      | Ok _ -> Alcotest.failf "%s: compiled a condition on uninitialized x" an
      | Error (`Error m) -> Alcotest.failf "%s: wrong error class: %s" an m
      | Error (`Unverified _) -> Alcotest.failf "%s: wrong error class: unverified" an);
      (* a condition on the (written) parameter still compiles *)
      match
        Eval.compile_condition s.Testkit.d s.Testkit.tg sess ~addr "n > 3"
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s: condition on parameter refused" an)
    [ Arch.Mips; Arch.Vax ]

(* --- dynamic soundness differential ------------------------------------------ *)

let sentinel = 0x5F5F5F5Fl

(** The variable entries of a stop's scope chain, innermost first. *)
let visible_locals (stop : Symtab.stop) : V.t list =
  Symtab.fold_scope
    ~until:(fun _ -> false)
    (fun acc e ->
      match V.dict_get (V.to_dict e) "kind" with
      | Some k when V.to_str k = "variable" -> e :: acc
      | _ -> acc)
    [] stop.Symtab.stop_scope
  |> List.rev

let entry_size (e : V.t) =
  match V.dict_get (V.to_dict e) "type" with
  | Some ty -> (
      match V.dict_get (V.to_dict ty) "size" with Some s -> V.to_int s | None -> 4)
  | None -> 4

(** A frame-based location, or [None] for registers/globals/statics. *)
let frame_loc d tg fr (e : V.t) : A.location option =
  match Symtab.where_of e with
  | Symtab.Frame _ -> (
      match Ldb.location_of d tg fr e with loc -> Some loc | exception _ -> None)
  | _ -> None

(** Drive one program through every executed stopping point on [arch],
    checking the emitted validity claims against the observed trace. *)
let soak_program arch sources =
  let s = Testkit.debug_session ~arch sources in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  Ldb.force_symbols d tg;
  (* plant a breakpoint on every stopping point of every procedure *)
  List.iter
    (fun proc ->
      List.iter
        (fun stop ->
          let addr = Ldb.stop_address d tg stop in
          if not (Hashtbl.mem tg.Ldb.tg_breaks addr) then
            ignore
              (Breakpoint.plant tg.Ldb.tg_breaks tg.Ldb.tg_tdesc tg.Ldb.tg_wire ~addr
                 ~source:(Symtab.entry_name stop.Symtab.stop_proc, stop.Symtab.stop_line)))
        (Symtab.stops_of_proc proc))
    (Symtab.procs tg.Ldb.tg_symtab);
  let checked = ref 0 and poked = ref 0 in
  let rec drive () =
    match Ldb.continue_ d tg with
    | Error _ -> Alcotest.fail "target died during the validity soak"
    | Ok (Ldb.Exited _) -> ()
    | Ok (Ldb.Stopped _) ->
        let fr = Ldb.top_frame d tg in
        (match Ldb.stop_of_frame d tg fr with
        | None -> ()
        | Some stop ->
            let locals = visible_locals stop in
            (* at the function's entry stop, poison every frame-local
               slot of the whole procedure (inner-scope locals are not
               visible yet but their slots already exist) so an unwritten
               variable is observable *)
            if stop.Symtab.stop_index = 0 then
              List.iter
                (fun st ->
                  List.iter
                    (fun e ->
                      match frame_loc d tg fr e with
                      | None -> ()
                      | Some (A.Absolute { space; offset }) ->
                          let words = (entry_size e + 3) / 4 in
                          for w = 0 to words - 1 do
                            A.store_i32 fr.Frame.fr_mem
                              (A.absolute space (offset + (4 * w)))
                              sentinel
                          done;
                          incr poked
                      | Some _ -> ())
                    (visible_locals st))
                (Symtab.stops_of_proc stop.Symtab.stop_proc);
            List.iter
              (fun e ->
                let name = Symtab.entry_name e in
                match Ldb.validity_of d tg fr e with
                | None -> ()
                | Some Symtab.Vuninit ->
                    (* print must warn, not show the poisoned slot — but
                       only when name lookup reaches this same entry
                       (shadowing may hide it) *)
                    let resolved_here =
                      match Ldb.resolve d tg fr name with
                      | Some r -> V.to_dict r == V.to_dict e
                      | None -> false
                    in
                    if resolved_here then begin
                      let out = Ldb.print_value d tg fr name in
                      if not (contains out "uninitialized") then
                        Alcotest.failf "%s %s: stop %d: print of uninit %s gave %S"
                          (Arch.name arch)
                          (Symtab.entry_name stop.Symtab.stop_proc)
                          stop.Symtab.stop_index name out;
                      incr checked
                    end
                | Some Symtab.Vvalid -> (
                    (* the table claims every path wrote it: the sentinel
                       must be gone *)
                    match frame_loc d tg fr e with
                    | Some loc when entry_size e = 4 ->
                        let v = A.fetch_i32 fr.Frame.fr_mem loc in
                        if v = sentinel then
                          Alcotest.failf
                            "%s %s: stop %d: %s claimed Valid but never written"
                            (Arch.name arch)
                            (Symtab.entry_name stop.Symtab.stop_proc)
                            stop.Symtab.stop_index name;
                        incr checked
                    | _ -> ())
                | Some Symtab.Vdead -> ())
              locals);
        drive ()
    | Ok _ -> Alcotest.fail "unexpected target state during the validity soak"
  in
  drive ();
  (!checked, !poked)

let soak_programs =
  [
    [ ("fib.c", Testkit.fib_c) ];
    [
      ( "soak.c",
      {|
int gcd(int a, int b)
{
    int t;
    while (b != 0) { t = b; b = a - a / b * b; a = t; }
    return a;
}
int classify(int n)
{
    int odd;
    int big;
    odd = n - n / 2 * 2;
    if (n > 100) { big = 1; return odd + 2 * big; }
    return odd;
}
int main(void)
{
    int r;
    r = gcd(48, 18);
    r = r + classify(7);
    r = r + classify(300);
    return r;
}
|} );
    ];
  ]

let test_dynamic_soundness () =
  List.iter
    (fun arch ->
      List.iter
        (fun sources ->
          let checked, poked = soak_program arch sources in
          Alcotest.(check bool)
            (Arch.name arch ^ " exercised claims")
            true
            (checked > 0 && poked > 0))
        soak_programs)
    Arch.all

let () =
  Alcotest.run "validity"
    [
      ( "debugger",
        [
          Alcotest.test_case "print of uninit local warns" `Quick test_print_uninit_warns;
          Alcotest.test_case "expression server refuses uninit" `Quick
            test_evaluate_refuses_uninit;
          Alcotest.test_case "conditions on uninit are unsupported" `Quick
            test_condition_refuses_uninit;
        ] );
      ( "differential",
        [
          Alcotest.test_case "dynamic soundness on all targets" `Quick
            test_dynamic_soundness;
        ] );
    ]
