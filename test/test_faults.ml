(** Soak tests for the fault-tolerant transport: complete debug sessions
    (plant a breakpoint, continue, inspect a variable, run to exit) on all
    four SIM targets while the ldb↔nub link injects drops, bit-flips,
    truncations, duplicates, stalls and mid-message disconnects from a
    seeded PRNG.

    The contract under test: a session either completes with {e exactly}
    the answers a clean run produces, or fails with a typed
    {!Ldb_ldb.Transport.Error} — never an uncaught exception, and never a
    silently wrong answer.  Disconnects are recovered by
    reattach-and-resync: reconnect to the surviving nub, replay Hello,
    re-read the stop context, re-validate planted breakpoints. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Transport = Ldb_ldb.Transport
module Chan = Ldb_nub.Chan
module Faultchan = Ldb_nub.Faultchan

let check = Alcotest.check
let sources = [ ("fib.c", Testkit.fib_c) ]

(** What a breakpoint/inspect/run-to-exit session observes. *)
type outcome = {
  oc_func : string;   (** function the breakpoint stopped in *)
  oc_n : int;         (** value of the argument [n] at the stop *)
  oc_status : int;    (** exit status *)
  oc_output : string; (** everything the target printed *)
}

let outcome_testable : outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o ->
      Fmt.pf ppf "{func=%s; n=%d; status=%d; output=%S}" o.oc_func o.oc_n o.oc_status
        o.oc_output)
    ( = )

let max_reattaches = 10

(** Run the canonical session over target [p]/[tg].  Transport
    disconnects are recovered by reattaching to the surviving nub over a
    fresh (clean) channel; any other [Transport.Error] propagates to the
    caller, which decides whether that counts as failure. *)
let run_scenario (d : Ldb.t) (p : Host.process) (tg : Ldb.target) : outcome =
  let reattaches = ref 0 in
  let reattach () =
    incr reattaches;
    if !reattaches > max_reattaches then
      Alcotest.failf "gave up after %d reattaches" max_reattaches;
    ignore (Host.reattach d tg p : Ldb.state)
  in
  (* retry an idempotent operation across disconnects *)
  let rec guard : 'a. (unit -> 'a) -> 'a =
   fun f ->
    try f ()
    with Transport.Error (Transport.Disconnected, _) ->
      reattach ();
      guard f
  in
  (* resuming is NOT idempotent: the nub may have executed the Continue
     and stopped before the link died.  After reattach, Hello reports the
     nub's preserved state — if the stop context moved, that stop is the
     answer; if it is unchanged, the resume never happened and is
     re-issued. *)
  let pc_of st = match st with Ldb.Stopped { ctx_addr; _ } -> Ldb.read_ctx_pc tg ctx_addr | _ -> -1 in
  let rec resume () =
    let before = pc_of tg.Ldb.tg_state in
    try Testkit.ok (Ldb.continue_ d tg)
    with Transport.Error (Transport.Disconnected, _) -> (
      reattach ();
      match tg.Ldb.tg_state with
      | Ldb.Exited _ -> tg.Ldb.tg_state
      | Ldb.Stopped _ when pc_of tg.Ldb.tg_state <> before -> tg.Ldb.tg_state
      | _ -> resume ())
  in
  ignore (guard (fun () -> Ldb.break_function d tg "fib") : int);
  (match resume () with
  | Ldb.Stopped _ -> ()
  | st -> Alcotest.failf "expected to stop at the breakpoint, got %s"
            (match st with Ldb.Exited n -> Printf.sprintf "Exited %d" n | _ -> "Running"));
  let oc_func =
    guard (fun () -> Ldb.frame_function d tg (Ldb.top_frame d tg))
  in
  let oc_n = guard (fun () -> Ldb.read_int_var d tg (Ldb.top_frame d tg) "n") in
  let oc_status =
    match resume () with
    | Ldb.Exited n -> n
    | _ -> Alcotest.fail "expected the target to run to exit"
  in
  { oc_func; oc_n; oc_status; oc_output = Host.output p }

(** The reference: a session over a clean link. *)
let clean_outcome ~arch : outcome =
  let s = Testkit.debug_session ~arch sources in
  run_scenario s.Testkit.d s.Testkit.proc s.Testkit.tg

(** A session whose link starts injecting faults once connected; also
    returns the injector and the transport's counters. *)
let faulty_outcome ~arch ~seed (prof : Faultchan.profile) :
    outcome * Faultchan.t * Transport.stats =
  let d = Ldb.create () in
  let p = Host.launch ~paused:true ~arch sources in
  (* connect over quiet weather, then arm the injector: connection setup
     failures are just Transport errors with nothing to reattach *)
  let chan, fc = Host.open_faulty_channel ~armed:false p ~seed prof in
  let tg = Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps chan in
  Faultchan.set_armed fc true;
  let oc = run_scenario d p tg in
  (oc, fc, Transport.stats (Ldb.transport tg))

(* --- the matrix ------------------------------------------------------------- *)

(** One fault class at a time, every architecture, fixed seeds.  The
    rates are high enough that faults actually land (asserted below) and
    the budgets low enough that the transport's bounded retries always
    win. *)
let matrix_profile (kind : Faultchan.kind) : Faultchan.profile =
  match kind with
  | Faultchan.Disconnect ->
      (* one cut link per session; recovery is reattach, not retry *)
      Faultchan.profile ~rate:0.15 ~kinds:[ kind ] ~max_faults:1 ()
  | Faultchan.Stall ->
      (* stalls shorter than the transport's first deadline ride on retries *)
      Faultchan.profile ~rate:0.25 ~kinds:[ kind ] ~max_faults:4 ~stall_ticks:4 ()
  | _ -> Faultchan.profile ~rate:0.25 ~kinds:[ kind ] ~max_faults:4 ()

let seed_of arch kind =
  (* stable, distinct per cell *)
  (List.length (List.filter (fun a -> a <> arch) Arch.all) * 100)
  + (match kind with
    | Faultchan.Drop -> 1 | Faultchan.Corrupt -> 2 | Faultchan.Truncate -> 3
    | Faultchan.Duplicate -> 4 | Faultchan.Stall -> 5 | Faultchan.Disconnect -> 6)

let test_fault_kind (kind : Faultchan.kind) () =
  List.iter
    (fun arch ->
      let name = Arch.name arch ^ "/" ^ Faultchan.kind_name kind in
      let clean = clean_outcome ~arch in
      let faulty, fc, _ =
        faulty_outcome ~arch ~seed:(seed_of arch kind) (matrix_profile kind)
      in
      check outcome_testable (name ^ " outcome matches clean run") clean faulty;
      if Faultchan.injected fc = 0 then
        Alcotest.failf "%s: the injector never fired (%d messages)" name
          (Faultchan.messages fc))
    Arch.all

(** All fault classes at once — the weather is bad in every way. *)
let test_mixed_storm () =
  List.iter
    (fun arch ->
      let clean = clean_outcome ~arch in
      let prof = Faultchan.profile ~rate:0.15 ~max_faults:6 ~stall_ticks:4 () in
      let faulty, fc, _ =
        faulty_outcome ~arch ~seed:(1000 + seed_of arch Faultchan.Drop) prof
      in
      check outcome_testable (Arch.name arch ^ "/storm outcome") clean faulty;
      if Faultchan.injected fc = 0 then
        Alcotest.failf "%s/storm: the injector never fired" (Arch.name arch))
    Arch.all

(* --- fault rates -------------------------------------------------------------- *)

(** A flaky link rather than a hostile one: every class but disconnect
    (whose recovery is reattach, not retry) at 0%, 1% and 5% of messages,
    five seeded sessions per target and rate.  No session may fail, each
    must give the clean run's answers, and at every nonzero rate the
    retry machinery must have engaged. *)
let test_fault_rates () =
  let kinds = Faultchan.[ Drop; Corrupt; Truncate; Duplicate; Stall ] in
  let clean = List.map (fun arch -> (arch, clean_outcome ~arch)) Arch.all in
  List.iter
    (fun rate ->
      let failed = ref 0 and retries = ref 0 in
      List.iteri
        (fun arch_ix arch ->
          for i = 1 to 5 do
            let seed = (int_of_float (rate *. 1000.0) * 1000) + (arch_ix * 100) + i in
            let prof = Faultchan.profile ~rate ~kinds ~stall_ticks:4 () in
            match faulty_outcome ~arch ~seed prof with
            | oc, _, st ->
                check outcome_testable
                  (Printf.sprintf "%s seed %d outcome" (Arch.name arch) seed)
                  (List.assoc arch clean) oc;
                retries := !retries + st.Transport.st_retries
            | exception Transport.Error _ -> incr failed
          done)
        Arch.all;
      check Alcotest.int (Printf.sprintf "failed sessions at rate %.2f" rate) 0 !failed;
      if rate > 0.0 then
        Alcotest.(check bool)
          (Printf.sprintf "%d retries at rate %.2f: the fault machinery engaged" !retries
             rate)
          true (!retries > 0))
    [ 0.0; 0.01; 0.05 ]

(* --- explicit disconnect → reattach → resync -------------------------------- *)

(** The full debugger-crash-survival walk, with every step asserted: the
    link dies mid-session, operations fail with the typed [Disconnected]
    error, reattach replays Hello, finds the target exactly where it
    stopped, replants a clobbered breakpoint, and the session finishes
    with the clean run's answers. *)
let test_disconnect_reattach_resync () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch sources in
      let d = s.Testkit.d and p = s.Testkit.proc and tg = s.Testkit.tg in
      let bp_addr = Ldb.break_function d tg "fib" in
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.fail (an ^ ": no stop at breakpoint"));
      let pc_before =
        match tg.Ldb.tg_state with
        | Ldb.Stopped { ctx_addr; _ } -> Ldb.read_ctx_pc tg ctx_addr
        | _ -> assert false
      in
      (* the link dies *)
      Chan.disconnect (Transport.endpoint (Ldb.transport tg));
      (* ... and the failure is typed, not a hang or a random exception *)
      (match Ldb.read_int_var d tg (Ldb.top_frame d tg) "n" with
      | exception Transport.Error (Transport.Disconnected, _) -> ()
      | exception e ->
          Alcotest.failf "%s: expected typed Disconnected, got %s" an (Printexc.to_string e)
      | _ -> Alcotest.fail (an ^ ": read over a dead link succeeded"));
      (* sabotage the planted trap, as if someone had scribbled on memory
         while we were away: resync must notice and replant *)
      let nop = tg.Ldb.tg_tdesc.Target.nop in
      String.iteri
        (fun i c -> Ram.set_u8 p.Host.hp_proc.Proc.ram (bp_addr + i) (Char.code c))
        nop;
      (* reattach over a fresh channel and resync *)
      (match Host.reattach d tg p with
      | Ldb.Stopped { ctx_addr; _ } ->
          check Alcotest.int (an ^ " resync finds the same stop") pc_before
            (Ldb.read_ctx_pc tg ctx_addr)
      | _ -> Alcotest.fail (an ^ ": reattach did not recover the stop"));
      check Alcotest.int (an ^ " one reconnect recorded") 1
        (Transport.stats (Ldb.transport tg)).Transport.st_reconnects;
      (* the clobbered breakpoint was replanted *)
      let brk = tg.Ldb.tg_tdesc.Target.brk in
      let in_ram =
        String.init (String.length brk) (fun i ->
            Char.chr (Ram.get_u8 p.Host.hp_proc.Proc.ram (bp_addr + i)))
      in
      check Alcotest.string (an ^ " trap replanted") brk in_ram;
      (* the session continues as if nothing happened *)
      check Alcotest.string (an ^ " function") "fib"
        (Ldb.frame_function d tg (Ldb.top_frame d tg));
      check Alcotest.int (an ^ " n") 10 (Ldb.read_int_var d tg (Ldb.top_frame d tg) "n");
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Exited 0 -> ()
      | _ -> Alcotest.fail (an ^ ": did not run to a clean exit"));
      check Alcotest.string (an ^ " output") "1 1 2 3 5 8 13 21 34 55 \n" (Host.output p))
    Arch.all

(** Detach severs the link on purpose; reattach is the flip side. *)
let test_detach_then_reattach () =
  let arch = Arch.Mips in
  let s = Testkit.debug_session ~arch sources in
  let d = s.Testkit.d and p = s.Testkit.proc and tg = s.Testkit.tg in
  ignore (Ldb.break_function d tg "fib" : int);
  (match Testkit.ok (Ldb.continue_ d tg) with Ldb.Stopped _ -> () | _ -> Alcotest.fail "no stop");
  Ldb.detach tg;
  (match tg.Ldb.tg_state with
  | Ldb.Detached -> ()
  | _ -> Alcotest.fail "detach did not mark the target detached");
  (match Host.reattach d tg p with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "reattach after detach failed");
  check Alcotest.string "still stopped in fib" "fib"
    (Ldb.frame_function d tg (Ldb.top_frame d tg));
  match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Exited 0 -> ()
  | _ -> Alcotest.fail "no clean exit after reattach"

(* --- teardown under fire ------------------------------------------------------ *)

(** Detaching while the link is injecting faults must leave no trap bytes
    in the target: the release path verifies its restores and re-stores
    any the weather ate.  A trap left in a process nobody is debugging
    turns its next execution into an unhandled fault. *)
let test_teardown_under_fire () =
  List.iter
    (fun arch ->
      List.iter
        (fun seed ->
          let an = Printf.sprintf "%s/seed %d" (Arch.name arch) seed in
          let d = Ldb.create () in
          let p = Host.launch ~paused:true ~arch sources in
          let prof =
            (* every kind but Disconnect: the wire stays up but hostile *)
            Faultchan.profile ~rate:0.25
              ~kinds:Faultchan.[ Drop; Corrupt; Truncate; Duplicate; Stall ]
              ~stall_ticks:4 ()
          in
          let chan, fc = Host.open_faulty_channel ~armed:false p ~seed prof in
          let tg = Ldb.connect d ~name:an ~loader_ps:p.Host.hp_loader_ps chan in
          ignore (Ldb.break_function d tg "fib" : int);
          (match Testkit.ok (Ldb.continue_ d tg) with
          | Ldb.Stopped _ -> ()
          | _ -> Alcotest.fail (an ^ ": no stop at breakpoint"));
          (* the weather turns foul exactly when we leave *)
          Faultchan.set_armed fc true;
          Ldb.detach tg;
          if Faultchan.injected fc = 0 then
            Alcotest.failf "%s: the injector never fired during teardown" an;
          (* inspect target RAM directly — the debugger is gone *)
          Hashtbl.iter
            (fun addr (bp : Ldb_ldb.Breakpoint.t) ->
              let want = bp.Ldb_ldb.Breakpoint.bp_original in
              let in_ram =
                String.init (String.length want) (fun i ->
                    Char.chr (Ram.get_u8 p.Host.hp_proc.Proc.ram (addr + i)))
              in
              check Alcotest.string
                (Printf.sprintf "%s: no trap bytes at %#x after detach" an addr)
                want in_ram)
            tg.Ldb.tg_breaks)
        [ 11; 23; 37 ])
    Arch.all

(* --- the going-down hook fires exactly once ----------------------------------- *)

(** A deliberate kill followed by an RPC that finds the same link dead
    must run the going-down hook once, not twice: the hook records core
    dumps, and one dead target must not yield two. *)
let test_down_hook_fires_once () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch sources in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      let tr = Ldb.transport tg in
      let fires = ref 0 in
      Transport.set_on_down tr (Some (fun _reason -> incr fires));
      ignore (Ldb.break_function d tg "fib" : int);
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.fail (an ^ ": no stop"));
      (* kill: the hook runs while the link still answers *)
      Ldb.kill tg;
      check Alcotest.int (an ^ " hook ran on kill") 1 !fires;
      Alcotest.(check bool) (an ^ " down_fired") true (Transport.down_fired tr);
      (* now the link actually dies and an RPC notices: same connection,
         no second firing *)
      Chan.disconnect (Transport.endpoint tr);
      (match Transport.rpc tr Ldb_nub.Proto.Hello with
      | exception Transport.Error (Transport.Disconnected, _) -> ()
      | exception e ->
          Alcotest.failf "%s: expected Disconnected, got %s" an (Printexc.to_string e)
      | _ -> Alcotest.fail (an ^ ": rpc over a dead link answered"));
      check Alcotest.int (an ^ " hook did not re-fire") 1 !fires;
      check Alcotest.int (an ^ " one firing in the stats") 1
        (Transport.stats tr).Transport.st_down_fires)
    Arch.all

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "faults"
    [
      ( "matrix",
        List.map
          (fun kind ->
            case (Faultchan.kind_name kind ^ " on all targets") (test_fault_kind kind))
          Faultchan.all_kinds );
      ("storm", [ case "all fault classes at once" test_mixed_storm ]);
      ("rates", [ case "no failures at 0/1/5%, retries engage" test_fault_rates ]);
      ( "reattach",
        [ case "disconnect, reattach, resync" test_disconnect_reattach_resync;
          case "detach then reattach" test_detach_then_reattach ] );
      ( "release",
        [ case "teardown under fire leaves no traps" test_teardown_under_fire;
          case "going-down hook fires exactly once" test_down_hook_fires_once ] );
    ]
