(** Tests for the Sec. 7.1 extensions: the nub's single-step protocol
    extension, breakpoints over arbitrary instructions, source-level
    stepping, graceful degradation when the extension is absent, and the
    event-driven client interface with conditional breakpoints. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Client = Ldb_ldb.Client
module Frame = Ldb_ldb.Frame
module Breakpoint = Ldb_ldb.Breakpoint

let check = Alcotest.check

let prog =
  {|
int triple(int x) { return 3 * x; }
int main(void)
{
    int i;
    int acc;
    acc = 0;
    for (i = 1; i <= 6; i++)
        acc = acc + triple(i);
    printf("%d\n", acc);
    return 0;
}
|}

let session ?can_step arch =
  let d = Ldb.create () in
  let p =
    let img, loader_ps = Ldb_link.Driver.build ~arch [ ("t.c", prog) ] in
    let proc = Ldb_link.Link.load img in
    let nub = Ldb_nub.Nub.create ?can_step proc in
    Ldb_nub.Nub.start ~paused:true nub;
    { Host.hp_proc = proc; hp_nub = nub; hp_image = img; hp_loader_ps = loader_ps }
  in
  let tg = Ldb.connect d ~name:"step" ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p) in
  (d, tg, p)

(* --- instruction stepping ----------------------------------------------- *)

let test_step_instruction_all_archs () =
  List.iter
    (fun arch ->
      let d, tg, _ = session arch in
      ignore (Ldb.break_function d tg "main");
      ignore (Ldb.continue_ d tg);
      let pc0 = (Ldb.top_frame d tg).Frame.fr_pc in
      (* the first step leaves the breakpoint, the second executes code *)
      ignore (Testkit.ok (Ldb.step_instruction d tg) : Ldb.state);
      (match Testkit.ok (Ldb.step_instruction d tg) with
      | Ldb.Stopped { signal = SIGTRAP; code = 1; _ } -> ()
      | _ -> Alcotest.fail "step did not stop with a step event");
      let pc1 = (Ldb.top_frame d tg).Frame.fr_pc in
      Alcotest.(check bool) (Arch.name arch ^ " pc advanced") true (pc1 <> pc0))
    Arch.all

(** The first instruction at or after [a] that is not a stopping-point
    no-op. *)
let rec first_real tg a =
  let nop = tg.Ldb.tg_tdesc.Target.nop in
  if Breakpoint.fetch_bytes tg.Ldb.tg_wire a (String.length nop) = nop then
    first_real tg (a + String.length nop)
  else a

(** Motion from a breakpoint executes the instruction the trap stands in
    for: after it, pc and registers are what the same motion gives once
    the breakpoint is cleared.  Two [stepi]s from a no-op and from a
    general breakpoint, and a [step] from either, on all four targets. *)
let test_leave_breakpoint () =
  List.iter
    (fun arch ->
      (* stop at [plant]'s breakpoint, optionally clear it, then move *)
      let after plant motions ~clear =
        let d, tg, _ = session arch in
        plant d tg;
        ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state);
        if clear then Breakpoint.remove_all tg.Ldb.tg_breaks tg.Ldb.tg_wire;
        List.map
          (fun motion ->
            ignore (Testkit.ok (motion d tg) : Ldb.state);
            let fr = Ldb.top_frame d tg in
            fr.Frame.fr_pc :: List.init (Target.nregs tg.Ldb.tg_tdesc) (Frame.fetch_reg fr))
          motions
      in
      let same what plant (how, motions) =
        check
          Alcotest.(list (list int))
          (Printf.sprintf "%s: %s leaves a %s breakpoint" (Arch.name arch) how what)
          (after plant motions ~clear:true) (after plant motions ~clear:false)
      in
      let stepi = ("stepi", [ Ldb.step_instruction; Ldb.step_instruction ]) in
      let step = ("step", [ (fun d tg -> Ldb.step_source d tg) ]) in
      let general d tg =
        let entry = Ldb.break_function d tg "triple" in
        Ldb.clear_breakpoint tg ~addr:entry;
        Ldb.break_address d tg ~addr:(first_real tg entry)
      in
      List.iter (same "no-op" (fun d tg -> ignore (Ldb.break_function d tg "triple" : int)))
        [ stepi; step ];
      List.iter (same "general" general) [ stepi; step ])
    Arch.all

let test_step_unsupported () =
  let d, tg, _ = session ~can_step:false Vax in
  Alcotest.(check bool) "capability reported" false tg.Ldb.tg_can_step;
  ignore (Ldb.break_function d tg "main");
  ignore (Ldb.continue_ d tg);
  (match Testkit.ok (Ldb.step_instruction d tg) with
  | exception Ldb.Error _ -> ()
  | _ -> Alcotest.fail "step accepted without nub support");
  (* but the no-op breakpoint scheme keeps working *)
  match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Exited 0 -> ()
  | _ -> Alcotest.fail "no-op scheme broken without stepping"

(* --- general breakpoints -------------------------------------------------- *)

let test_general_breakpoint () =
  List.iter
    (fun arch ->
      let d, tg, p = session arch in
      (* plant over the *second* instruction of triple: not a no-op *)
      let entry = Ldb.break_function d tg "triple" in
      Ldb.clear_breakpoint tg ~addr:entry;
      Ldb.break_address d tg ~addr:(first_real tg entry);
      (* six calls to triple: the general breakpoint must hit six times and
         execution must stay correct (restore / step / replant) *)
      let hits = ref 0 in
      let rec drive () =
        match Testkit.ok (Ldb.continue_ d tg) with
        | Ldb.Stopped { signal = SIGTRAP; _ } ->
            incr hits;
            drive ()
        | Ldb.Exited 0 -> ()
        | _ -> Alcotest.fail "unexpected stop"
      in
      drive ();
      check Alcotest.int (Arch.name arch ^ " hits") 6 !hits;
      check Alcotest.string (Arch.name arch ^ " output intact") "63\n" (Host.output p))
    Arch.all

let test_general_needs_stepping () =
  let d, tg, _ = session ~can_step:false M68k in
  match Ldb.break_address d tg ~addr:Ram.Layout.code_base with
  | exception Ldb.Error _ -> ()
  | _ -> Alcotest.fail "general breakpoint planted without step support"

(* --- source-level stepping -------------------------------------------------- *)

let test_step_source () =
  let d, tg, _ = session Mips in
  ignore (Ldb.break_function d tg "main");
  ignore (Ldb.continue_ d tg);
  (* stepping from main's entry: each step lands on a stopping point *)
  let lines = ref [] in
  for _ = 1 to 4 do
    match Testkit.ok (Ldb.step_source d tg) with
    | Ldb.Stopped _ -> (
        let fr = Ldb.top_frame d tg in
        match Ldb.stop_of_frame d tg fr with
        | Some s -> lines := s.Ldb_ldb.Symtab.stop_line :: !lines
        | None -> Alcotest.fail "step landed off a stopping point")
    | _ -> Alcotest.fail "step_source did not stop"
  done;
  (* main: acc=0 (line 7), i=1 (line 8), i<=6 (line 8), then into the body *)
  Alcotest.(check bool) "visited several distinct points" true
    (List.length (List.sort_uniq compare !lines) >= 2)

let test_step_source_enters_callee () =
  let d, tg, _ = session Sparc in
  ignore (Ldb.break_line d tg ~line:9);  (* acc = acc + triple(i) *)
  ignore (Ldb.continue_ d tg);
  (* stepping from the call statement eventually lands in triple *)
  let rec go n =
    if n = 0 then Alcotest.fail "never reached triple"
    else
      match Testkit.ok (Ldb.step_source d tg) with
      | Ldb.Stopped _ ->
          let fr = Ldb.top_frame d tg in
          if Ldb.frame_function d tg fr = "triple" then ()
          else go (n - 1)
      | _ -> Alcotest.fail "lost the target"
  in
  go 6

(** Every stopping-point address in the program, from the whole table. *)
let all_stops d tg =
  Ldb.force_symbols d tg;
  List.concat_map
    (fun p -> List.map (Ldb.stop_address d tg) (Ldb_ldb.Symtab.stops_of_proc p))
    (Ldb_ldb.Symtab.procs tg.Ldb.tg_symtab)

(** The reference [step]: [stepi] until the pc is at a stopping point
    other than the one it started from, in any frame, or the program
    stops for another reason.  A planted breakpoint reached on the way
    ends the step too, as it ends [continue]. *)
let reference_step stops d tg =
  let pc () = (Ldb.top_frame d tg).Frame.fr_pc in
  let start = pc () in
  let rec go n =
    if n > 100_000 then Alcotest.fail "reference step found no stopping point";
    match Testkit.ok (Ldb.step_instruction d tg) with
    | Ldb.Stopped { signal = SIGTRAP; code = 1; _ } ->
        let p = pc () in
        if p <> start && (List.mem p stops || Hashtbl.mem tg.Ldb.tg_breaks p) then ()
        else go (n + 1)
    | _ -> ()
  in
  go 0

(** [step] lands where the [stepi] reference does, eight steps running
    (or to the exit), from a fresh stop, a no-op breakpoint, a general
    breakpoint and the no-op breakpoint's stop after [clear], on all four
    targets. *)
let test_step_matches_stepi () =
  let stop_at plant d tg =
    plant d tg;
    ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state)
  in
  let noop d tg = ignore (Ldb.break_function d tg "triple" : int) in
  let general d tg =
    let entry = Ldb.break_function d tg "triple" in
    Ldb.clear_breakpoint tg ~addr:entry;
    Ldb.break_address d tg ~addr:(first_real tg entry)
  in
  let starts =
    [
      ("a fresh stop", fun _ _ -> ());
      ("a no-op breakpoint", stop_at noop);
      ("a general breakpoint", stop_at general);
      ( "a cleared breakpoint's stop",
        fun d tg ->
          stop_at noop d tg;
          Breakpoint.remove_all tg.Ldb.tg_breaks tg.Ldb.tg_wire );
    ]
  in
  List.iter
    (fun arch ->
      List.iter
        (fun (what, start) ->
          let trail motion =
            let d, tg, _ = session arch in
            start d tg;
            let stops = all_stops d tg in
            let rec go n =
              match tg.Ldb.tg_state with
              | Ldb.Stopped _ when n > 0 ->
                  motion stops d tg;
                  let here = Ldb.where d tg in
                  here :: go (n - 1)
              | _ -> []
            in
            go 8
          in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s: step from %s" (Arch.name arch) what)
            (trail reference_step)
            (trail (fun _ d tg -> ignore (Testkit.ok (Ldb.step_source d tg) : Ldb.state))))
        starts)
    Arch.all

(** A function's exit stopping point carries the line of its closing
    brace (line 5 here): blank lines after the function must not move
    it, in the PostScript table or in the stabs, on all four targets. *)
let test_exit_stop_line () =
  let src gap =
    "int g;\nvoid poke(int x)\n{\n    g = g + x;\n}\n" ^ String.make gap '\n'
    ^ "int main(void) { poke(1); return 0; }\n"
  in
  let last l = List.nth l (List.length l - 1) in
  List.iter
    (fun arch ->
      List.iter
        (fun gap ->
          let img, loader_ps = Ldb_link.Driver.build ~arch [ ("t.c", src gap) ] in
          let what = Printf.sprintf "%s, %d blank lines" (Arch.name arch) gap in
          let st = (Ldb.load_image (Ldb.create ()) ~loader_ps).Ldb.im_symtab in
          (match Ldb_ldb.Symtab.proc_by_name st "poke" with
          | Some p ->
              check Alcotest.int (what ^ ": PostScript exit stop") 5
                (last (Ldb_ldb.Symtab.stops_of_proc p)).Ldb_ldb.Symtab.stop_line
          | None -> Alcotest.fail "poke not in the symbol table");
          let module S = Ldb_stabsdbg.Stabsdbg in
          match
            List.concat_map (fun u -> u.S.uv_funcs) (S.units (S.start img))
            |> List.find_opt (fun f -> S.stab_name f.S.fv_fun = "poke")
          with
          | Some f ->
              check Alcotest.int (what ^ ": stabs exit stop") 5 (last f.S.fv_slines).S.st_desc
          | None -> Alcotest.fail "poke not in the stabs")
        [ 0; 3 ])
    Arch.all

(* --- event-driven client / conditional breakpoints ---------------------------- *)

let test_conditional_breakpoint () =
  let d, tg, _p = session Vax in
  let client = Client.create d tg in
  let addr = Ldb.break_function d tg "triple" in
  (* only stop when x > 4: should fire exactly twice (x=5, x=6) *)
  Client.break_when client ~addr (fun fr -> Ldb.read_int_var d tg fr "x" > 4);
  let stops = ref [] in
  let ev =
    Client.run client ~handler:(fun ev ->
        match ev with
        | Client.Ev_breakpoint { frame; _ } ->
            stops := Ldb.read_int_var d tg frame "x" :: !stops;
            Client.Resume
        | Client.Ev_signal _ -> Client.Resume
        | Client.Ev_exit _ -> Client.Pause)
  in
  (match ev with Client.Ev_exit 0 -> () | _ -> Alcotest.fail "did not run to exit");
  check Alcotest.(list int) "fired for x=5,6 only" [ 5; 6 ] (List.rev !stops)

let test_event_classification () =
  let d, tg, _ = session M68k in
  let client = Client.create d tg in
  ignore (Ldb.break_function d tg "main");
  let ev = Client.run client ~handler:(fun _ -> Client.Pause) in
  match ev with
  | Client.Ev_breakpoint { frame; _ } ->
      check Alcotest.string "in main" "main" (Ldb.frame_function d tg frame)
  | _ -> Alcotest.fail "expected a breakpoint event"

(* --- watchpoints --------------------------------------------------------- *)

let watch_prog =
  {|
int counter = 0;
int spin(int n) { int i; int s; s = 0; for (i = 0; i < n; i++) s += i; return s; }
int main(void)
{
    int a;
    a = spin(5);
    counter = a + 1;    /* the watched modification */
    a = spin(3);
    printf("%d %d\n", counter, a);
    return 0;
}
|}

let test_watchpoint () =
  let d = Ldb.create () in
  let p, tg = Host.spawn d ~arch:Sparc ~name:"w" [ ("w.c", watch_prog) ] in
  ignore p;
  let client = Client.create d tg in
  (* address of the global through the symbol machinery *)
  ignore (Ldb.break_function d tg "main" : int);
  ignore (Ldb.continue_ d tg);
  let fr = Ldb.top_frame d tg in
  let addr =
    match Ldb.resolve d tg fr "counter" with
    | Some entry -> (
        match Ldb.location_of d tg fr entry with
        | Ldb_amemory.Amemory.Absolute { offset; _ } -> offset
        | _ -> Alcotest.fail "no address")
    | None -> Alcotest.fail "counter not found"
  in
  (match Client.watch client ~addr () with
  | Client.Ev_signal { frame; _ } | Client.Ev_breakpoint { frame; _ } ->
      (* stopped right after the store: counter already has its new value *)
      Alcotest.(check string) "stopped in main" "main" (Ldb.frame_function d tg frame);
      Alcotest.(check int) "new value visible" 11
        (Int32.to_int
           (Ldb_amemory.Amemory.fetch_i32 tg.Ldb.tg_wire
              (Ldb_amemory.Amemory.absolute 'd' addr)))
  | Client.Ev_exit _ -> Alcotest.fail "exited before the watch fired");
  match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Exited 0 -> ()
  | _ -> Alcotest.fail "did not finish after the watch"

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "stepping"
    [
      ( "instruction stepping",
        [ case "steps on all targets" test_step_instruction_all_archs;
          case "motion leaves a breakpoint on all targets" test_leave_breakpoint;
          case "unsupported nub degrades gracefully" test_step_unsupported ] );
      ( "general breakpoints",
        [ case "restore/step/replant on all targets" test_general_breakpoint;
          case "requires the extension" test_general_needs_stepping ] );
      ( "source stepping",
        [ case "lands on stopping points" test_step_source;
          case "enters callees" test_step_source_enters_callee;
          case "step = stepi reference on all targets" test_step_matches_stepi;
          case "exit stop on the closing brace on all targets" test_exit_stop_line ] );
      ( "client events",
        [ case "conditional breakpoints" test_conditional_breakpoint;
          case "classification" test_event_classification;
          case "data watchpoint" test_watchpoint ] );
    ]
