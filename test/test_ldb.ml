(** Integration tests for the debugger proper: connection mechanisms,
    breakpoints, value printing through the PostScript machinery, stack
    walking on every architecture, register variables with alias reuse,
    assignment, fault catching, reconnection, and cross-architecture /
    multi-target debugging from a single ldb instance. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Frame = Ldb_ldb.Frame
module Host = Ldb_ldb.Host
module Breakpoint = Ldb_ldb.Breakpoint

let check = Alcotest.check

let deep_c =
  {|
int depth3(int x) { int local3; local3 = x * 3; return local3; }
int depth2(int x) { int local2; local2 = depth3(x + 1) + 1; return local2; }
int depth1(int x) { register int r1; r1 = x + 100; return depth2(r1); }
int main(void) {
    printf("%d\n", depth1(5));
    return 0;
}
|}

let values_c =
  {|
struct point { int x; int y; double w; };
static struct point origin;
double gd = 2.5;
char *msg = "hi there";

int work(void)
{
    struct point p;
    int v[4];
    double d;
    char c;
    int i;
    p.x = 10; p.y = 20; p.w = 1.5;
    origin.x = -1;
    for (i = 0; i < 4; i++) v[i] = i + 1;
    d = gd * 2.0;
    c = 'Q';
    printf("done %d %g %c\n", v[3], d, c);
    return p.x + p.y;
}
int main(void) { return work(); }
|}

(* line numbers in values_c (leading newline = line 1 empty):
   printf at line 19 -- by then all locals are set *)

let session ~arch src = Testkit.debug_session ~arch [ ("t.c", src) ]

(* --- breakpoints --------------------------------------------------------------- *)

let test_break_function_all_archs () =
  List.iter
    (fun arch ->
      let s = session ~arch Testkit.fib_c in
      let addr = Ldb.break_function s.Testkit.d s.Testkit.tg "fib" in
      Alcotest.(check bool) "address in code" true (addr >= Ram.Layout.code_base);
      match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Stopped { signal = SIGTRAP; _ } ->
          let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
          check Alcotest.string (Arch.name arch ^ " stopped in fib") "fib"
            (Ldb.frame_function s.Testkit.d s.Testkit.tg fr)
      | _ -> Alcotest.fail "did not stop at breakpoint")
    Arch.all

let test_break_only_at_noops () =
  let s = session ~arch:Mips Testkit.fib_c in
  (* address of fib's entry + 4 is not a stopping point no-op *)
  let addr = Ldb.break_function s.Testkit.d s.Testkit.tg "fib" in
  Ldb.clear_breakpoint s.Testkit.tg ~addr;
  (* scan past any consecutive stopping-point no-ops to real code *)
  let tdesc = s.Testkit.tg.Ldb.tg_tdesc in
  let wire = s.Testkit.tg.Ldb.tg_wire in
  let nop = tdesc.Target.nop in
  let rec first_real a =
    if Breakpoint.fetch_bytes wire a (String.length nop) = nop then
      first_real (a + String.length nop)
    else a
  in
  match
    Breakpoint.plant s.Testkit.tg.Ldb.tg_breaks tdesc wire ~addr:(first_real addr)
  with
  | exception Breakpoint.Error _ -> ()
  | _bp -> Alcotest.fail "planted a breakpoint on a non-no-op"

let test_breakpoint_removal () =
  let s = session ~arch:Vax Testkit.fib_c in
  let addrs = Ldb.break_line s.Testkit.d s.Testkit.tg ~line:8 in
  ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
  List.iter (fun addr -> Ldb.clear_breakpoint s.Testkit.tg ~addr) addrs;
  match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Exited 0 ->
      check Alcotest.string "output intact" "1 1 2 3 5 8 13 21 34 55 \n"
        (Host.output s.Testkit.proc)
  | _ -> Alcotest.fail "did not run to completion after removal"

let test_breakpoints_survive_and_dont_corrupt () =
  (* planting and removing restores the exact no-op bytes *)
  let s = session ~arch:M68k Testkit.fib_c in
  let tg = s.Testkit.tg in
  let addr = Ldb.break_function s.Testkit.d tg "fib" in
  Ldb.clear_breakpoint tg ~addr;
  let bytes = Breakpoint.fetch_bytes tg.Ldb.tg_wire addr 2 in
  check Alcotest.string "no-op restored" tg.Ldb.tg_tdesc.Target.nop bytes

(* --- value printing -------------------------------------------------------------- *)

let stop_in_work s =
  ignore (Ldb.break_line s.Testkit.d s.Testkit.tg ~line:19);
  match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Stopped _ -> Ldb.top_frame s.Testkit.d s.Testkit.tg
  | _ -> Alcotest.fail "did not stop"

let test_print_values_all_archs () =
  List.iter
    (fun arch ->
      let s = session ~arch values_c in
      let fr = stop_in_work s in
      let p name = Ldb.print_value s.Testkit.d s.Testkit.tg fr name in
      let an = Arch.name arch in
      check Alcotest.string (an ^ " int array") "{1, 2, 3, 4}" (p "v");
      check Alcotest.string (an ^ " struct") "{x=10, y=20, w=1.5}" (p "p");
      check Alcotest.string (an ^ " double") "5.0" (p "d");
      check Alcotest.string (an ^ " char") "'Q'" (p "c");
      check Alcotest.string (an ^ " global double") "2.5" (p "gd");
      check Alcotest.string (an ^ " char pointer") "\"hi there\"" (p "msg");
      check Alcotest.string (an ^ " static struct") "{x=-1, y=0, w=0.0}" (p "origin"))
    Arch.all

let test_scope_rules () =
  (* i is visible inside its block; j is not *)
  let s = session ~arch:Sparc Testkit.fib_c in
  ignore (Ldb.break_line s.Testkit.d s.Testkit.tg ~line:8);
  ignore (Testkit.continue_n s 1);
  let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
  (match Ldb.resolve s.Testkit.d s.Testkit.tg fr "i" with
  | Some _ -> ()
  | None -> Alcotest.fail "i not visible at its own loop");
  (match Ldb.resolve s.Testkit.d s.Testkit.tg fr "j" with
  | None -> ()
  | Some _ -> Alcotest.fail "j leaked into the first block");
  (* statics and params visible *)
  (match Ldb.resolve s.Testkit.d s.Testkit.tg fr "a" with
  | Some _ -> ()
  | None -> Alcotest.fail "static a not visible");
  match Ldb.resolve s.Testkit.d s.Testkit.tg fr "n" with
  | Some _ -> ()
  | None -> Alcotest.fail "parameter n not visible"

(* --- stack walking ------------------------------------------------------------------ *)

let test_backtrace_all_archs () =
  List.iter
    (fun arch ->
      let s = session ~arch deep_c in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "depth3");
      ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
      let bt = Ldb.backtrace s.Testkit.d s.Testkit.tg in
      let names = List.map (Ldb.frame_function s.Testkit.d s.Testkit.tg) bt in
      check
        Alcotest.(list string)
        (Arch.name arch ^ " backtrace")
        [ "depth3"; "depth2"; "depth1"; "main" ]
        names)
    Arch.all

let test_locals_in_walked_frames () =
  List.iter
    (fun arch ->
      let s = session ~arch deep_c in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "depth3");
      ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
      let bt = Ldb.backtrace s.Testkit.d s.Testkit.tg in
      let fr3 = List.nth bt 0 and fr1 = List.nth bt 2 in
      (* depth3's parameter x = r1 = 105 after depth2 added 1 -> 106 *)
      check Alcotest.int
        (Arch.name arch ^ " x in depth3")
        106
        (Ldb.read_int_var s.Testkit.d s.Testkit.tg fr3 "x");
      (* the register variable r1 in depth1's frame, read through the
         alias chain (saved register or reused context alias) *)
      check Alcotest.int
        (Arch.name arch ^ " register var in walked frame")
        105
        (Ldb.read_int_var s.Testkit.d s.Testkit.tg fr1 "r1"))
    Arch.all

(* --- assignment ------------------------------------------------------------------------ *)

let test_assignment_changes_execution () =
  List.iter
    (fun arch ->
      let s = session ~arch Testkit.fib_c in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "fib");
      ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
      let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
      Testkit.ok_unit (Ldb.assign_int s.Testkit.d s.Testkit.tg fr "n" 4);
      (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Exited 0 -> ()
      | _ -> Alcotest.fail "did not finish");
      check Alcotest.string
        (Arch.name arch ^ " n=4 output")
        "1 1 2 3 \n"
        (Host.output s.Testkit.proc))
    Arch.all

let test_float_assignment () =
  let s = session ~arch:M68k values_c in
  let fr = stop_in_work s in
  Testkit.ok_unit (Testkit.assign_float s.Testkit.d s.Testkit.tg fr "d" 9.25);
  check Alcotest.string "d after assign" "9.25"
    (Ldb.print_value s.Testkit.d s.Testkit.tg fr "d")

(* --- faults and post-mortem -------------------------------------------------------------- *)

let faulty_c =
  {|
int crash(int d) { return 100 / d; }
int main(void) {
    printf("before\n");
    printf("%d\n", crash(0));
    return 0;
}
|}

let test_fault_caught () =
  List.iter
    (fun arch ->
      let s = session ~arch faulty_c in
      match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Stopped { signal = SIGFPE; _ } ->
          let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
          check Alcotest.string
            (Arch.name arch ^ " faulted in crash")
            "crash"
            (Ldb.frame_function s.Testkit.d s.Testkit.tg fr);
          (* the argument that caused it is inspectable *)
          check Alcotest.int (Arch.name arch ^ " d") 0
            (Ldb.read_int_var s.Testkit.d s.Testkit.tg fr "d")
      | _ -> Alcotest.fail "expected SIGFPE stop")
    Arch.all

let test_postmortem_attach () =
  (* the program faults with NO debugger attached; the nub preserves
     state; ldb attaches afterwards *)
  let p = Host.launch ~arch:Vax [ ("f.c", faulty_c) ] ~paused:false in
  (match p.Host.hp_proc.Proc.status with
  | Proc.Stopped (SIGFPE, _) -> ()
  | _ -> Alcotest.fail "program did not fault");
  let d = Ldb.create () in
  let tg = Host.attach_existing d ~name:"postmortem" p in
  (match tg.Ldb.tg_state with
  | Ldb.Stopped { signal = SIGFPE; _ } -> ()
  | _ -> Alcotest.fail "attach did not see the fault");
  let fr = Ldb.top_frame d tg in
  check Alcotest.string "faulting function" "crash" (Ldb.frame_function d tg fr)

let test_detach_reattach () =
  let s = session ~arch:Mips Testkit.fib_c in
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "fib");
  ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
  (* first debugger detaches (or crashes) *)
  Ldb.detach s.Testkit.tg;
  (* a second debugger picks up exactly where the first left off *)
  let d2 = Ldb.create () in
  let tg2 = Host.attach_existing d2 ~name:"second" s.Testkit.proc in
  let fr = Ldb.top_frame d2 tg2 in
  check Alcotest.string "still stopped in fib" "fib" (Ldb.frame_function d2 tg2 fr);
  check Alcotest.int "n readable" 10 (Ldb.read_int_var d2 tg2 fr "n")

(* --- multi-target, cross-architecture ------------------------------------------------------ *)

let test_two_targets_simultaneously () =
  (* one ldb debugging a big-endian SIM-MIPS and a little-endian SIM-VAX
     at once, with the same machine-independent code *)
  let d = Ldb.create () in
  let p1, tg1 = Host.spawn d ~arch:Mips ~name:"mips-side" [ ("t.c", Testkit.fib_c) ] in
  let p2, tg2 = Host.spawn d ~arch:Vax ~name:"vax-side" [ ("t.c", Testkit.fib_c) ] in
  ignore (Ldb.break_function d tg1 "fib");
  ignore (Ldb.break_function d tg2 "fib");
  ignore (Ldb.continue_ d tg1);
  ignore (Ldb.continue_ d tg2);
  let f1 = Ldb.top_frame d tg1 and f2 = Ldb.top_frame d tg2 in
  check Alcotest.int "mips n" 10 (Ldb.read_int_var d tg1 f1 "n");
  check Alcotest.int "vax n" 10 (Ldb.read_int_var d tg2 f2 "n");
  (* run both to completion *)
  ignore (Ldb.continue_ d tg1);
  ignore (Ldb.continue_ d tg2);
  check Alcotest.string "mips out" "1 1 2 3 5 8 13 21 34 55 \n" (Host.output p1);
  check Alcotest.string "vax out" "1 1 2 3 5 8 13 21 34 55 \n" (Host.output p2)

let test_arch_mismatch_check () =
  (* connecting with a symbol table for the wrong architecture must fail *)
  let d = Ldb.create () in
  let p1 = Host.launch ~arch:Mips [ ("a.c", Testkit.fib_c) ] in
  let p2 = Host.launch ~arch:Vax [ ("a.c", Testkit.fib_c) ] in
  match Ldb.connect d ~name:"bad" ~loader_ps:p2.Host.hp_loader_ps (Host.open_channel p1) with
  | exception Ldb.Error _ -> ()
  | exception Ldb_ldb.Linkerif.Error _ -> ()
  | _tg -> Alcotest.fail "mismatched symbol table accepted"

(** SIM-MIPS frame sizes come from the runtime procedure table in target
    memory.  A count no linker writes is a typed linker-interface error
    from the walk, not an empty table that leaves every frame unknown. *)
let test_bad_rpt_count () =
  List.iter
    (fun count ->
      let s = session ~arch:Mips Testkit.fib_c in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "fib");
      ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
      Ram.set_u32 s.Testkit.proc.Host.hp_proc.Proc.ram Rpt.base count;
      match Ldb.backtrace s.Testkit.d s.Testkit.tg with
      | exception Ldb_ldb.Linkerif.Error m ->
          check Alcotest.bool ("names the count: " ^ m) true
            (Testkit.contains_sub m (Int32.to_string count))
      | _ -> Alcotest.failf "count %ld: backtrace walked a table it cannot have read" count)
    [ -1l; Int32.of_int (Rpt.max_entries + 1); Int32.max_int ]

let test_where_report () =
  let s = session ~arch:Sparc Testkit.fib_c in
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "fib");
  ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
  let w = Ldb.where s.Testkit.d s.Testkit.tg in
  Alcotest.(check bool) "mentions SIGTRAP and fib" true
    (let has sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length w && (String.sub w i n = sub || go (i + 1)) in
       go 0
     in
     has "SIGTRAP" && has "fib")

(** A procedure whose /savedregs entry is not a [reg offset] pair (only
    depth1 of [deep_c] saves a register).  Every walk through it is a
    typed [Ldb.Error], the second one too: a failed decode is not kept.
    A server session answers [Failed] and stays usable. *)
let test_bad_savedregs () =
  let hostile ps = Testkit.replace_first ps "/savedregs [ [ " "/savedregs [ [ 99 ] [ " in
  List.iter
    (fun arch ->
      let what = Arch.name arch in
      let p = Host.launch ~arch [ ("t.c", deep_c) ] in
      let d = Ldb.create () in
      let tg = Ldb.connect d ~name:what ~loader_ps:(hostile p.Host.hp_loader_ps) (Host.open_channel p) in
      ignore (Ldb.break_function d tg "depth3");
      ignore (Ldb.continue_ d tg);
      for attempt = 1 to 2 do
        match Ldb.backtrace d tg with
        | exception Ldb.Error m ->
            check Alcotest.bool (Printf.sprintf "%s walk %d: %s" what attempt m) true
              (Testkit.contains_sub m "not a [reg offset] pair")
        | _ -> Alcotest.failf "%s walk %d: walked through a bad /savedregs" what attempt
      done;
      check Alcotest.string (what ^ " frames above it still work") "depth2"
        (Ldb.frame_function d tg (Option.get ((Ldb.top_frame d tg).Frame.fr_down ())));
      let sv = Ldb_ldb.Server.create () in
      let p = Host.launch ~arch [ ("t.c", deep_c) ] in
      let id =
        match
          Ldb_ldb.Server.open_session sv ~name:what ~loader_ps:(hostile p.Host.hp_loader_ps)
            (Host.open_channel p)
        with
        | Ok id -> id
        | Error r -> Alcotest.failf "%s: open refused: %s" what (Ldb_ldb.Server.refusal_to_string r)
      in
      let exec c = Ldb_ldb.Server.exec sv id c in
      ignore (exec (Ldb_ldb.Server.Break_function "depth3"));
      ignore (exec Ldb_ldb.Server.Continue);
      for attempt = 1 to 2 do
        match exec Ldb_ldb.Server.Backtrace with
        | Error (Ldb_ldb.Server.Failed m) ->
            check Alcotest.bool (Printf.sprintf "%s server walk %d: %s" what attempt m) true
              (Testkit.contains_sub m "not a [reg offset] pair")
        | Ok _ -> Alcotest.failf "%s server walk %d: answered" what attempt
        | Error r ->
            Alcotest.failf "%s server walk %d: %s" what attempt
              (Ldb_ldb.Server.refusal_to_string r)
      done;
      match exec (Ldb_ldb.Server.Read_int "x") with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "%s: session unusable: %s" what (Ldb_ldb.Server.refusal_to_string r))
    Arch.all

(* --- cost of a walk -------------------------------------------------------------------- *)

(** A warm 23-frame backtrace plus [frame_function] on every frame
    allocates at most [words_per_frame] minor words per frame on every
    target.  A caller's alias table holds only what its frame changes,
    and each frame resolves its procedure once, so the walk's
    allocation no longer grows with the context table.  A ceiling, not
    a golden: word counts differ between OCaml releases. *)
let words_per_frame = 250.

let test_walk_allocation () =
  List.iter
    (fun arch ->
      let s = Testkit.debug_session ~arch (Testkit.deep_sources ~units:8 ~top:21 ~rounds:1) in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      (* d5 runs at depths 5, 13 and 21: the third stop is the deepest *)
      ignore (Ldb.break_function d tg "d5");
      ignore (Testkit.continue_n s 3);
      let walk () = List.map (Ldb.frame_function d tg) (Ldb.backtrace d tg) in
      let frames = List.length (walk ()) in
      check Alcotest.int (Arch.name arch ^ " frames") 23 frames;
      let rounds = 20 in
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        ignore (Sys.opaque_identity (walk ()))
      done;
      let per_frame = (Gc.minor_words () -. before) /. float_of_int (rounds * frames) in
      if per_frame > words_per_frame then
        Alcotest.failf "%s: %.0f minor words per frame (ceiling %.0f)" (Arch.name arch)
          per_frame words_per_frame)
    Arch.all

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "ldb"
    [
      ( "breakpoints",
        [ case "break at function (all targets)" test_break_function_all_archs;
          case "no-ops only" test_break_only_at_noops;
          case "removal" test_breakpoint_removal;
          case "bytes restored" test_breakpoints_survive_and_dont_corrupt ] );
      ( "printing",
        [ case "values on all targets" test_print_values_all_archs;
          case "scope rules" test_scope_rules ] );
      ( "stack",
        [ case "backtrace on all targets" test_backtrace_all_archs;
          case "locals and register vars in walked frames" test_locals_in_walked_frames ] );
      ( "assignment",
        [ case "changes execution" test_assignment_changes_execution;
          case "floats" test_float_assignment ] );
      ( "faults",
        [ case "caught and inspectable" test_fault_caught;
          case "post-mortem attach" test_postmortem_attach;
          case "detach and reattach" test_detach_reattach ] );
      ( "multi-target",
        [ case "two architectures at once" test_two_targets_simultaneously;
          case "architecture mismatch" test_arch_mismatch_check;
          case "where" test_where_report;
          case "absurd procedure-table count is typed" test_bad_rpt_count ] );
      ( "hostile tables",
        [ case "a bad /savedregs entry fails every walk" test_bad_savedregs ] );
      ("cost", [ case "a warm deep walk allocates little per frame" test_walk_allocation ]);
    ]
