(** Record/replay time travel tests: the trace codec (round-trips,
    checkpoint embedding, salvage on truncation and corruption), the
    reverse-execution differential the feature promises — every
    historical stop reached by rstep/rcontinue must answer backtrace,
    print, and disassembly byte-identically to a fresh forward session
    halted at the same point, validity-aware printing included — the
    run-back-to-last-write query, and the determinism gate CI leans on:
    recording the same seeded session twice yields byte-identical
    traces, and replaying one to the end reproduces the live core. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Replay = Ldb_ldb.Replay
module Server = Ldb_ldb.Server
module Transport = Ldb_ldb.Transport
module Frame = Ldb_ldb.Frame
module Disas = Ldb_ldb.Disas
module Trace = Ldb_nub.Trace
module Proto = Ldb_nub.Proto

let check = Alcotest.check

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* a function with a local that is assigned partway through: stepping
   backwards across the assignment must revive the "uninitialized"
   warning exactly where a forward session shows it *)
let work_c =
  {|
int g;
void work(void)
{
    int x;
    g = 1;
    x = 5;
    g = x + 2;
}
int main(void)
{
    work();
    return 0;
}
|}

let work_sources = [ ("work.c", work_c) ]

(* a loop with a repeated breakpoint hit, for rcontinue *)
let loop_c =
  {|
int total;
void bump(int k)
{
    total = total + k;
}
int main(void)
{
    int i;
    for (i = 1; i <= 4; i++)
        bump(i);
    printf("%d\n", total);
    return 0;
}
|}

let loop_sources = [ ("loop.c", loop_c) ]

(* a global written three times, then inspected: rwatch material *)
let writes_c =
  {|
int x;
int y;
void finish(void)
{
    printf("%d\n", x);
}
int main(void)
{
    x = 1;
    x = 2;
    x = 3;
    finish();
    return 0;
}
|}

let writes_sources = [ ("writes.c", writes_c) ]

(** Everything the debugger shows at a stop, concatenated: where,
    backtrace, variable printing (through the validity tables and the
    PostScript printers), and disassembly at the pc.  Two sessions
    halted at "the same point" must produce equal views. *)
let view d tg ~(vars : string list) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b (Ldb.where d tg);
  Buffer.add_char b '\n';
  List.iteri
    (fun i fr ->
      Buffer.add_string b
        (Printf.sprintf "#%d %s pc=%#x base=%#x\n" i (Ldb.frame_function d tg fr)
           fr.Frame.fr_pc fr.Frame.fr_base))
    (Ldb.backtrace d tg);
  let fr = Ldb.top_frame d tg in
  List.iter
    (fun v ->
      let s =
        try Ldb.print_value d tg fr v with Ldb.Error m -> "<error: " ^ m ^ ">"
      in
      Buffer.add_string b (Printf.sprintf "%s = %s\n" v s))
    vars;
  Buffer.add_string b
    (Disas.to_string (Ldb.disassemble d tg ~addr:fr.Frame.fr_pc ~count:4));
  Buffer.contents b

let reach = function
  | Ok tg -> tg
  | Error e -> Alcotest.failf "reverse motion failed: %s" (Replay.error_to_string e)

let expect_stop what = function
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.failf "%s: expected a stop" what

let open_replay (s : Testkit.session) : Replay.t =
  let image = Ldb.load_image s.Testkit.d ~loader_ps:s.Testkit.proc.Host.hp_loader_ps in
  match
    Replay.of_string s.Testkit.d ~name:"replay" ~image (Ldb.trace_bytes s.Testkit.tg)
  with
  | Ok (rp, []) -> rp
  | Ok (_, w :: _) -> Alcotest.failf "unexpected salvage: %s" (Trace.salvage_to_string w)
  | Error e -> Alcotest.failf "open replay: %s" (Replay.error_to_string e)

(* --- reverse-step differential --------------------------------------------- *)

(** Record a session that breaks in [work] and single-steps [k] times,
    then walk the whole timeline backwards: after [m] reverse steps the
    replayed target must answer exactly like a fresh forward session
    that stopped at the breakpoint and stepped [k - m] times. *)
let timeline_case arch () =
  let k = 9 in
  let vars = [ "x"; "g" ] in
  let s = Testkit.debug_session ~arch work_sources in
  Ldb.start_record s.Testkit.tg ~spacing:4;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "work" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
  (* unplant so stepping moves off the trap site; the restoring store is
     itself recorded and replayed *)
  Ldb_ldb.Breakpoint.remove_all s.Testkit.tg.Ldb.tg_breaks s.Testkit.tg.Ldb.tg_wire;
  for _ = 1 to k do
    ignore (Testkit.ok (Ldb.step_instruction s.Testkit.d s.Testkit.tg) : Ldb.state)
  done;
  let rp = open_replay s in
  let fresh j =
    let f = Testkit.debug_session ~arch work_sources in
    ignore (Ldb.break_function f.Testkit.d f.Testkit.tg "work" : int);
    expect_stop "fresh continue" (Testkit.ok (Ldb.continue_ f.Testkit.d f.Testkit.tg));
    Ldb_ldb.Breakpoint.remove_all f.Testkit.tg.Ldb.tg_breaks f.Testkit.tg.Ldb.tg_wire;
    for _ = 1 to j do
      ignore (Testkit.ok (Ldb.step_instruction f.Testkit.d f.Testkit.tg) : Ldb.state)
    done;
    view f.Testkit.d f.Testkit.tg ~vars
  in
  let tg = reach (Replay.seek_end rp) in
  check Alcotest.string
    (Arch.name arch ^ ": end of history equals the live session")
    (view s.Testkit.d s.Testkit.tg ~vars)
    (view s.Testkit.d tg ~vars);
  let views = ref [] in
  for m = 1 to k do
    let tg = reach (Replay.rstep rp) in
    let v = view s.Testkit.d tg ~vars in
    views := v :: !views;
    check Alcotest.string
      (Printf.sprintf "%s: %d reverse steps = fresh run stepped %d times"
         (Arch.name arch) m (k - m))
      (fresh (k - m)) v
  done;
  (* PR-9 validity must keep working in reverse: early in [work] the
     local prints as uninitialized, later it prints its value *)
  check Alcotest.bool (Arch.name arch ^ ": some historical view warns uninitialized")
    true
    (List.exists (contains ~needle:"uninitialized") !views);
  check Alcotest.bool (Arch.name arch ^ ": some historical view prints x = 5") true
    (List.exists (contains ~needle:"x = 5") !views)

(* --- reverse-continue differential ----------------------------------------- *)

(** Three breakpoint hits forward, then rcontinue back through them:
    each previous stop must equal a fresh session continued that many
    times, and running out of stops is a typed end-of-history. *)
let rcontinue_case arch () =
  let vars = [ "total"; "k" ] in
  let s = Testkit.debug_session ~arch loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:32;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  for _ = 1 to 3 do
    expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg))
  done;
  let rp = open_replay s in
  let fresh j =
    let f = Testkit.debug_session ~arch loop_sources in
    ignore (Ldb.break_function f.Testkit.d f.Testkit.tg "bump" : int);
    for _ = 1 to j do
      expect_stop "fresh continue" (Testkit.ok (Ldb.continue_ f.Testkit.d f.Testkit.tg))
    done;
    view f.Testkit.d f.Testkit.tg ~vars
  in
  let tg = reach (Replay.seek_end rp) in
  check Alcotest.string
    (Arch.name arch ^ ": end of history equals the live session")
    (view s.Testkit.d s.Testkit.tg ~vars)
    (view s.Testkit.d tg ~vars);
  let tg = reach (Replay.rcontinue rp) in
  check Alcotest.string
    (Arch.name arch ^ ": one rcontinue = second stop")
    (fresh 2)
    (view s.Testkit.d tg ~vars);
  let tg = reach (Replay.rcontinue rp) in
  check Alcotest.string
    (Arch.name arch ^ ": two rcontinues = first stop")
    (fresh 1)
    (view s.Testkit.d tg ~vars);
  (* one more lands at the start of recorded history: the paused
     process exactly as it was when recording began *)
  let start =
    let f = Testkit.debug_session ~arch loop_sources in
    view f.Testkit.d f.Testkit.tg ~vars
  in
  let tg = reach (Replay.rcontinue rp) in
  check Alcotest.string
    (Arch.name arch ^ ": three rcontinues = start of recording")
    start
    (view s.Testkit.d tg ~vars);
  (match Replay.rcontinue rp with
  | Error `End_of_history -> ()
  | Ok _ -> Alcotest.fail "rcontinue past the beginning succeeded"
  | Error e -> Alcotest.failf "expected end of history, got %s" (Replay.error_to_string e));
  match Replay.rstep rp with
  | Error `End_of_history -> ()
  | Ok _ -> Alcotest.fail "rstep past the beginning succeeded"
  | Error e -> Alcotest.failf "expected end of history, got %s" (Replay.error_to_string e)

(* --- run back to the last write --------------------------------------------- *)

let rwatch_case () =
  let s = Testkit.debug_session ~arch:Arch.Mips writes_sources in
  Ldb.start_record s.Testkit.tg ~spacing:16;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "finish" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
  let rp = open_replay s in
  let tg = reach (Replay.seek_end rp) in
  let range name =
    match Ldb.variable_range s.Testkit.d tg (Ldb.top_frame s.Testkit.d tg) name with
    | Ok r -> r
    | Error m -> Alcotest.failf "variable_range %s: %s" name m
  in
  let _, addr, size = range "x" in
  let _, yaddr, ysize = range "y" in
  let read tg name =
    Ldb.read_int_var s.Testkit.d tg (Ldb.top_frame s.Testkit.d tg) name
  in
  (* land just after the last of the three writes *)
  let tg, _pos =
    match Replay.run_back_to_write rp ~addr ~size with
    | Ok r -> r
    | Error e -> Alcotest.failf "rwatch x: %s" (Replay.error_to_string e)
  in
  check Alcotest.int "x just after its last write" 3 (read tg "x");
  (* one instruction earlier the previous value is still there *)
  let tg = reach (Replay.rstep rp) in
  check Alcotest.int "x one instruction before the last write" 2 (read tg "x");
  (* from that point, the most recent write is the second one *)
  let tg, _pos =
    match Replay.run_back_to_write rp ~addr ~size with
    | Ok r -> r
    | Error e -> Alcotest.failf "rwatch x again: %s" (Replay.error_to_string e)
  in
  check Alcotest.int "x just after its previous write" 2 (read tg "x");
  (* a variable nothing ever writes is a typed miss, not a crash *)
  match Replay.run_back_to_write rp ~addr:yaddr ~size:ysize with
  | Error `No_write -> ()
  | Ok _ -> Alcotest.fail "found a write to a never-written variable"
  | Error e -> Alcotest.failf "expected no-write, got %s" (Replay.error_to_string e)

(* --- nub-side conditions under recording ---------------------------------- *)

(* a hot loop whose breakpoint carries a condition the nub evaluates *)
let cond_c =
  {|
int g;
void spin(int n)
{
    int i;
    for (i = 0; i < n; i++)
        g = g + 1;
}
int main(void)
{
    spin(200);
    printf("%d\n", g);
    return 0;
}
|}

(** The stop [tg] shows: its pc, the loop counter, and its core dump. *)
let cond_stop d tg =
  let ctx_addr =
    match tg.Ldb.tg_state with
    | Ldb.Stopped { ctx_addr; _ } -> ctx_addr
    | _ -> Alcotest.fail "target is not stopped"
  in
  let fr = Ldb.top_frame d tg in
  (Ldb.read_ctx_pc tg ctx_addr, Ldb.read_int_var d tg fr "i", Ldb.core_bytes tg)

(** Silent resumes per continue, as the replay re-executes each one
    from the position where it began. *)
let replayed_suppressed (rp : Replay.t) : int list =
  List.init (Replay.requests rp) Fun.id
  |> List.filter (fun j -> rp.Replay.rp_reqs.(j) = Proto.Continue)
  |> List.map (fun j ->
         let n = Replay.position_raw rp ~ev:j ~delta:0 in
         n.Ldb_nub.Nub.suppressed <- 0;
         let used = Replay.apply rp n j ~cap:None in
         Replay.check_outcome rp n ~ev:j ~used;
         n.Ldb_nub.Nub.suppressed)

(** Record a run whose nub resumes silently over most traps, with
    checkpoints spaced so that several fall between two reported stops,
    among suppressed traps.  Those mid-run checkpoints carry the context
    of the last reported stop, not of the last trap.  Replay must still
    reach every stop the live run reported, with the same pc, loop
    counter, count of silent resumes and core.  [before] installs the
    condition before recording begins rather than after. *)
let cond_record_case ~before arch () =
  let s = Testkit.debug_session ~arch [ ("cond.c", cond_c) ] in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  let addr = Testkit.break_at s ~src:cond_c ~stmt:"g = g + 1" in
  let text = "i % 50 == 7" in
  let prog = Testkit.compile_ok s (Ldb_exprserver.Eval.start ~arch) ~addr text in
  if before then Testkit.nub_condition s ~addr ~text prog;
  Ldb.start_record tg ~spacing:100;
  if not before then Testkit.nub_condition s ~addr ~text prog;
  let suppressed () =
    match (Hashtbl.find tg.Ldb.tg_breaks addr).Ldb_ldb.Breakpoint.bp_cond with
    | Some c -> c.Ldb_ldb.Breakpoint.c_suppressed
    | None -> Alcotest.fail "the condition is gone"
  in
  let live, live_sup =
    List.split
      (List.init 4 (fun _ ->
           let before = suppressed () in
           expect_stop "continue" (Testkit.ok (Ldb.continue_ d tg));
           (cond_stop d tg, suppressed () - before)))
  in
  let rp = open_replay s in
  let replayed =
    List.init 4 (fun k ->
        cond_stop d (reach (if k = 0 then Replay.seek_end rp else Replay.rcontinue rp)))
    |> List.rev
  in
  let an = Arch.name arch in
  List.iteri
    (fun k ((pc, i, core), (pc', i', core')) ->
      let what = Printf.sprintf "%s stop %d" an (k + 1) in
      check Alcotest.int (what ^ ": pc") pc pc';
      check Alcotest.int (what ^ ": i") i i';
      check Alcotest.bool (what ^ ": core") true (String.equal core core'))
    (List.combine live replayed);
  check Alcotest.(list int) (an ^ ": silent resumes per stop") live_sup (replayed_suppressed rp);
  check Alcotest.(list int) (an ^ ": silent resumes, absolutely") [ 7; 49; 49; 49 ] live_sup;
  check Alcotest.(list int) (an ^ ": stops where the condition holds") [ 7; 57; 107; 157 ]
    (List.map (fun (_, i, _) -> i) live);
  check Alcotest.bool (an ^ ": checkpoints between stops") true
    (Replay.checkpoint_count rp > 8)

(* --- determinism gate -------------------------------------------------------- *)

(* The seeded session both determinism cases record; [poll] fetches the
   trace after every continue, as the REPL does on each trip into
   history. *)
let determinism_script ?(poll = false) () : Testkit.session =
  let s = Testkit.debug_session ~arch:Arch.Mips loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:8;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  for _ = 1 to 3 do
    expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
    if poll then ignore (Ldb.trace_bytes s.Testkit.tg : string)
  done;
  s

(* When LDB_TRACE_DIR is set, traces land there for CI to upload. *)
let keep_trace name bytes =
  match Sys.getenv_opt "LDB_TRACE_DIR" with
  | Some dir ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc bytes)
  | None -> ()

(* pinned across builds too: bytes that change the same way in every
   recording (checkpoint dumps, their compaction) still fail here *)
let golden_trace_crc = "76f41a9b"

(** The CI job's contract: two recordings of the same seeded session are
    byte-identical, and replaying one to the end reproduces the live
    process's registers and memory exactly (compared as core dumps). *)
let determinism_case () =
  let s1 = determinism_script () and s2 = determinism_script () in
  let t1 = Ldb.trace_bytes s1.Testkit.tg and t2 = Ldb.trace_bytes s2.Testkit.tg in
  keep_trace "trace-a.bin" t1;
  keep_trace "trace-b.bin" t2;
  check Alcotest.bool "same session records byte-identical traces" true
    (String.equal t1 t2);
  check Alcotest.string "trace matches its golden CRC-32" golden_trace_crc
    (Printf.sprintf "%08x" (Ldb_util.Crc32.string t1));
  let image = Ldb.load_image s1.Testkit.d ~loader_ps:s1.Testkit.proc.Host.hp_loader_ps in
  let rp =
    match Replay.of_string s1.Testkit.d ~name:"det" ~image t1 with
    | Ok (rp, []) -> rp
    | Ok (_, w :: _) -> Alcotest.failf "salvage: %s" (Trace.salvage_to_string w)
    | Error e -> Alcotest.failf "open: %s" (Replay.error_to_string e)
  in
  let tg = reach (Replay.seek_end rp) in
  check Alcotest.bool "replayed end dumps the live core" true
    (String.equal (Ldb.core_bytes tg) (Ldb.core_bytes s1.Testkit.tg))

(** A recorder polled after every continue encodes each event once, into
    the same bytes one final fetch would have: the trace it ends with is
    byte-identical to the single-fetch recording and to the golden CRC. *)
let polled_fetch_case () =
  let polled = Ldb.trace_bytes (determinism_script ~poll:true ()).Testkit.tg in
  let single = Ldb.trace_bytes (determinism_script ()).Testkit.tg in
  keep_trace "trace-polled.bin" polled;
  check Alcotest.bool "polled trace = one final fetch" true (String.equal polled single);
  check Alcotest.string "polled trace matches the golden CRC-32" golden_trace_crc
    (Printf.sprintf "%08x" (Ldb_util.Crc32.string polled))

(* a division by zero, then a call to break in *)
let fpe_c =
  {|
int zero;
int q;
void mark(int v)
{
    q = v;
}
int main(void)
{
    q = 100 / zero;
    mark(7);
    return 0;
}
|}

(** Replay serves a stop's dump exactly as the live nub does: after the
    debugger moved the context pc past a SIGFPE's faulting instruction
    and continued to [mark], the breakpoint stop's dump, not the
    fault's.  With [spacing] wider than the run, replay re-executes the
    fault.  With a checkpoint every instruction it restores one taken at
    the fault, and there it must also serve the fault's dump after the
    pc store ([at_fault]). *)
let fixed_fault_case ~spacing ~at_fault arch () =
  let s = Testkit.debug_session ~arch [ ("fpe.c", fpe_c) ] in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  let signal_of bytes =
    match Core.of_string bytes with
    | Ok (co, _) -> Signal.name (Option.get (Signal.of_number co.Core.co_signal))
    | Error m -> m
  in
  let same_dump what =
    let live = Ldb.core_bytes tg in
    let replayed = Ldb.core_bytes (reach (Replay.seek_end (open_replay s))) in
    check Alcotest.string (what ^ ": replayed dump's signal") (signal_of live)
      (signal_of replayed);
    check Alcotest.bool (what ^ ": replayed end dumps the live core") true
      (String.equal live replayed)
  in
  Ldb.start_record tg ~spacing;
  ignore (Ldb.break_function d tg "mark" : int);
  (match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Stopped { signal = Signal.SIGFPE; ctx_addr; _ } -> (
      match Ldb.disassemble d tg ~addr:(Ldb.read_ctx_pc tg ctx_addr) ~count:2 with
      | [ _; next ] -> Ldb.write_ctx_pc tg ctx_addr next.Disas.di_addr
      | _ -> Alcotest.fail "no instruction after the fault")
  | _ -> Alcotest.fail "expected a SIGFPE stop");
  if at_fault then same_dump "at the fault";
  (match Testkit.ok (Ldb.continue_ d tg) with
  | Ldb.Stopped { signal = Signal.SIGTRAP; _ } -> ()
  | _ -> Alcotest.fail "expected the breakpoint in mark");
  same_dump "at the breakpoint"

(** [stepi] off a no-op breakpoint only moves the context pc, a store
    and no run: the end of history must show the moved pc, as live. *)
let stepi_end_case arch () =
  let s = Testkit.debug_session ~arch loop_sources in
  let d = s.Testkit.d and tg = s.Testkit.tg in
  Ldb.start_record tg ~spacing:8;
  ignore (Ldb.break_function d tg "bump" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ d tg));
  expect_stop "stepi" (Testkit.ok (Ldb.step_instruction d tg));
  let live = Ldb.core_bytes tg in
  let rtg = reach (Replay.seek_end (open_replay s)) in
  check Alcotest.string "replayed where" (Ldb.where d tg) (Ldb.where d rtg);
  check Alcotest.bool "replayed end dumps the live core" true
    (String.equal live (Ldb.core_bytes rtg))

(* --- cost ------------------------------------------------------------------------ *)

(* the loop again, long enough that recording and seeking do real work *)
let long_loop_sources =
  [
    ( "loop.c",
      {|
int total;
void bump(int k)
{
    total = total + k;
}
int main(void)
{
    int i;
    for (i = 1; i <= 1500; i++)
        bump(i);
    printf("%d\n", total);
    return 0;
}
|} );
  ]

(** Run the long loop to exit, recording at [spacing] if given; returns
    the session and the CPU seconds the run itself took. *)
let run_long_loop ?spacing () : Testkit.session * float =
  let s = Testkit.debug_session ~arch:Arch.Mips long_loop_sources in
  Option.iter (fun spacing -> Ldb.start_record s.Testkit.tg ~spacing) spacing;
  let secs =
    Testkit.cpu_time (fun () ->
        match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
        | Ldb.Exited _ -> ()
        | _ -> Alcotest.fail "the loop did not run to exit")
  in
  (s, secs)

(** Recording while debugging forward, at the wide checkpoint spacing
    recommended for live use, costs under 2x an untraced run (the median
    of seven interleaved timings) and leaves a non-empty trace. *)
let record_overhead_case () =
  let spacing = 100_000 in
  let ratio =
    Testkit.median_ratio
      ~slow:(fun () -> snd (run_long_loop ~spacing ()))
      ~fast:(fun () -> snd (run_long_loop ()))
      ()
  in
  Alcotest.(check bool) (Printf.sprintf "record overhead %.2fx: under 2x" ratio) true
    (ratio < 2.0);
  let s, _ = run_long_loop ~spacing () in
  Alcotest.(check bool) "the recorded run left a trace" true
    (String.length (Ldb.trace_bytes s.Testkit.tg) > 0)

(** The spacing knob trades trace bytes for seek work.  At every spacing
    the trace holds checkpoints and instructions, is stored smaller than
    its checkpoint cores alone would take raw, and a reverse step never
    re-executes more than the spacing plus a 16-instruction delay-slot
    allowance.  All of these are machine-independent counts, pinned. *)
let spacing_sweep_case () =
  List.iter
    (fun (spacing, checkpoints, max_reexec) ->
      let sp = Printf.sprintf "spacing %d:" spacing in
      let s, _ = run_long_loop ~spacing () in
      let bytes = Ldb.trace_bytes s.Testkit.tg in
      let rp = open_replay s in
      ignore (reach (Replay.seek_end rp) : Ldb.target);
      let worst = ref 0 in
      for _ = 1 to 100 do
        ignore (reach (Replay.rstep rp) : Ldb.target);
        worst := max !worst (Replay.last_seek_cost rp)
      done;
      check Alcotest.int (sp ^ " checkpoints") checkpoints (Replay.checkpoint_count rp);
      check Alcotest.int (sp ^ " instructions recorded") 55535
        (Replay.recorded_instructions rp);
      let raw_cores =
        match Trace.of_string bytes with
        | Ok (tr, []) ->
            List.fold_left
              (fun acc -> function
                | Trace.Checkpoint ck -> (
                    match Trace.checkpoint_core ck with
                    | Ok core -> acc + String.length core
                    | Error m -> Alcotest.failf "checkpoint core: %s" m)
                | _ -> acc)
              0 tr.Trace.tr_events
        | _ -> Alcotest.fail "the recorded trace does not decode cleanly"
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s stored %d bytes < %d bytes of raw checkpoint cores" sp
           (String.length bytes) raw_cores)
        true
        (String.length bytes < raw_cores);
      check Alcotest.int (sp ^ " worst re-execution per rstep") max_reexec !worst;
      Alcotest.(check bool) (sp ^ " re-execution within spacing + 16") true
        (!worst <= spacing + 16))
    [ (64, 858, 63); (256, 217, 205); (1024, 55, 221) ]

(* --- trace codec -------------------------------------------------------------- *)

(** qcheck: a checkpoint really is an LDBCORE1 dump plus a replay
    cursor — random cores wrapped in checkpoints round-trip through the
    trace codec intact, alongside neighbouring events. *)
let gen_ck_trace : Trace.t QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    Testkit.core_gen >>= fun co ->
    int_bound 20 >>= fun ev ->
    oneof [ return 0; int_range 1 1000 ] >>= fun delta ->
    int_bound 31 >>= fun signal ->
    int_bound 255 >>= fun code ->
    (* exit statuses are signed *)
    int_range (-255) 255 >>= fun status ->
    oneofl
      [ Trace.Ck_running; Trace.Ck_stopped { signal; code }; Trace.Ck_exited status ]
    >>= fun ck_status ->
    let ck =
      { Trace.ck_ev = ev; ck_delta = delta; ck_status; ck_stored = Core.to_string co;
        ck_packing = Trace.Fresh }
    in
    oneofl Arch.all >>= fun arch ->
    int_range 1 1000 >>= fun fuel ->
    bool >>= fun can_step ->
    int_range 1 64 >>= fun spacing ->
    string_size ~gen:char (int_bound 6) >>= fun stored ->
    return
      { Trace.tr_arch = arch; tr_fuel = fuel; tr_can_step = can_step;
        tr_spacing = spacing;
        tr_events =
          [ Trace.Checkpoint ck;
            Trace.Req (Proto.Store { space = 'd'; addr = 0x40; bytes = "\x01" ^ stored });
            Trace.Req Proto.Continue;
            Trace.Stop { signal; code; pc = ev * 4; instrs = delta + 1 };
            Trace.Req Proto.Step;
            Trace.Exit { status; instrs = 1 } ] }
  in
  QCheck.make gen

(* events with each checkpoint's core read out, however it is packed *)
let unpacked (tr : Trace.t) =
  List.map
    (function
      | Trace.Checkpoint ck ->
          `Ck (ck.Trace.ck_ev, ck.Trace.ck_delta, ck.Trace.ck_status, Trace.checkpoint_core ck)
      | e -> `Ev e)
    tr.Trace.tr_events

(* decoding keeps each core as stored, and encoding writes it back
   unchanged: a decoded trace re-encodes to the same bytes *)
let prop_checkpoint_roundtrip =
  Testkit.qtest "checkpointed traces roundtrip" ~count:200 gen_ck_trace (fun tr ->
      let bytes = Trace.to_string tr in
      match Trace.of_string bytes with
      | Ok (tr', []) ->
          { tr' with Trace.tr_events = [] } = { tr with Trace.tr_events = [] }
          && unpacked tr' = unpacked tr
          && Trace.to_string tr' = bytes
      | Ok (_, _ :: _) | Error _ -> false)

let prop_decode_total =
  Testkit.qtest "trace of_string never raises" ~count:300
    QCheck.(string_gen_of_size (Gen.int_bound 400) Gen.char)
    (fun s -> match Trace.of_string s with Ok _ | Error _ -> true)

(* A short recording to damage: checkpoints every 8 instructions. *)
let record_loop arch =
  let s = Testkit.debug_session ~arch loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:8;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
  let image = Ldb.load_image s.Testkit.d ~loader_ps:s.Testkit.proc.Host.hp_loader_ps in
  match Trace.of_string (Ldb.trace_bytes s.Testkit.tg) with
  | Ok (tr, []) -> (s, image, tr)
  | _ -> Alcotest.fail "pristine trace did not decode cleanly"

(* the MIPS one, decoded once *)
let recorded = lazy (record_loop Arch.Mips)

(* [tr] with checkpoint [k]'s stored bytes replaced by [f] of them *)
let with_stored (tr : Trace.t) k f =
  let i = ref (-1) in
  let edit = function
    | Trace.Checkpoint ck ->
        incr i;
        Trace.Checkpoint (if !i = k then { ck with Trace.ck_stored = f ck.Trace.ck_stored } else ck)
    | e -> e
  in
  { tr with Trace.tr_events = List.map edit tr.Trace.tr_events }

let checkpoints (tr : Trace.t) =
  List.filter_map (function Trace.Checkpoint ck -> Some ck | _ -> None) tr.Trace.tr_events

(* [tr] with the first compressed checkpoint after the first one made
   unreadable, that checkpoint and the one before it *)
let unreadable_checkpoint (tr : Trace.t) =
  let cks = checkpoints tr in
  let k =
    match
      List.find_index (fun ck -> ck.Trace.ck_packing = Trace.Lzw) (List.tl cks)
    with
    | Some k -> k + 1
    | None -> Alcotest.fail "no compressed checkpoint after the first"
  in
  (* the first 9-bit code reads 511, past every single-byte code *)
  (with_stored tr k (fun b -> "\xff\xff" ^ b), List.nth cks k, List.nth cks (k - 1))

(** qcheck: flip bytes inside the checkpoint bodies of a recorded trace,
    re-seal every record's CRC, and restore each checkpoint in turn.
    Decoding happens only there, so only typed errors may come back. *)
let prop_restore_total =
  Testkit.qtest "damaged checkpoints restore typed or not at all" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 4) (triple small_nat small_nat (int_range 1 255)))
    (fun flips ->
      let s, image, tr = Lazy.force recorded in
      let n = List.length (checkpoints tr) in
      let hostile =
        List.fold_left
          (fun tr (k, at, x) ->
            with_stored tr (k mod n) (fun b ->
                let b = Bytes.of_string b in
                let at = at * 37 mod Bytes.length b in
                Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x));
                Bytes.to_string b))
          tr flips
      in
      match Replay.of_string s.Testkit.d ~name:"flipped" ~image (Trace.to_string hostile) with
      | Error _ -> true
      | Ok (rp, _) ->
          List.iter
            (fun ck ->
              match Replay.seek rp ~ev:ck.Trace.ck_ev ~delta:ck.Trace.ck_delta with
              | Ok _ | Error _ -> ())
            (checkpoints hostile);
          true)

(** A CRC-valid trace whose compressed checkpoint holds a corrupt LZW
    stream still opens: the stream is read only when a seek restores that
    checkpoint, which then fails typed, while positions before it still
    materialize. *)
let lazy_decode_case () =
  let s, image, tr = Lazy.force recorded in
  let hostile, bad, _ = unreadable_checkpoint tr in
  match Replay.of_string s.Testkit.d ~name:"lazy" ~image (Trace.to_string hostile) with
  | Error e -> Alcotest.failf "open: %s" (Replay.error_to_string e)
  | Ok (rp, ws) -> (
      check Alcotest.int "no salvage: every record is CRC-valid" 0 (List.length ws);
      (match Replay.seek rp ~ev:bad.Trace.ck_ev ~delta:bad.Trace.ck_delta with
      | Error (`Bad_trace m) ->
          check Alcotest.bool ("typed refusal: " ^ m) true
            (contains ~needle:"checkpoint core unreadable" m)
      | Error e -> Alcotest.failf "unexpected error: %s" (Replay.error_to_string e)
      | Ok _ -> Alcotest.fail "restored a checkpoint whose core is unreadable");
      match Replay.seek rp ~ev:0 ~delta:0 with
      | Ok tg -> ignore (view s.Testkit.d tg ~vars:[ "total" ] : string)
      | Error e -> Alcotest.failf "seek before the damage: %s" (Replay.error_to_string e))

(* --- a seek re-points the session's one target ----------------------------- *)

(* a recording over three stops in [bump] *)
let three_stops arch : Testkit.session =
  let s = Testkit.debug_session ~arch loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:16;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  for _ = 1 to 3 do
    expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg))
  done;
  s

let reconnects tg = (Transport.stats (Ldb.transport tg)).Transport.st_reconnects

let is_target rp tg = match Replay.target rp with Some t -> t == tg | None -> false

(** Every seek after the first re-points the replay's one target: each
    motion answers with that same target, reconnected once per seek. *)
let one_target_case arch () =
  let rp = open_replay (three_stops arch) in
  let tg = reach (Replay.seek_end rp) in
  let base = reconnects tg in
  List.iteri
    (fun i motion ->
      let what = Printf.sprintf "%s, motion %d" (Arch.name arch) (i + 1) in
      check Alcotest.bool (what ^ ": the same target") true (reach (motion rp) == tg);
      check Alcotest.bool (what ^ ": Replay.target") true (is_target rp tg);
      check Alcotest.int (what ^ ": one reconnect per seek") (base + i + 1) (reconnects tg))
    Replay.[ rstep; rstep; rcontinue; rcontinue; seek_end; rcontinue; rstep ]

(** A seek that fails leaves the target at its previous position,
    answering exactly as before. *)
let failed_seek_case arch () =
  let s, image, tr = record_loop arch in
  let hostile, bad, good = unreadable_checkpoint tr in
  match Replay.of_string s.Testkit.d ~name:"failed" ~image (Trace.to_string hostile) with
  | Error e -> Alcotest.failf "open: %s" (Replay.error_to_string e)
  | Ok (rp, _) -> (
      ignore (reach (Replay.seek rp ~ev:0 ~delta:0) : Ldb.target);
      let tg = reach (Replay.seek rp ~ev:good.Trace.ck_ev ~delta:good.Trace.ck_delta) in
      let vars = [ "total"; "k" ] in
      let before = view s.Testkit.d tg ~vars and at = Replay.position_cursor rp in
      let n = reconnects tg in
      (match Replay.seek rp ~ev:bad.Trace.ck_ev ~delta:bad.Trace.ck_delta with
      | Error (`Bad_trace _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Replay.error_to_string e)
      | Ok _ -> Alcotest.fail "restored a checkpoint whose core is unreadable");
      let an = Arch.name arch in
      check Alcotest.bool (an ^ ": the same target") true (is_target rp tg);
      check Alcotest.(pair int int) (an ^ ": the same cursor") at (Replay.position_cursor rp);
      check Alcotest.int (an ^ ": not reconnected") n (reconnects tg);
      check Alcotest.string (an ^ ": the same view") before (view s.Testkit.d tg ~vars);
      match Replay.seek_end rp with
      | Ok tg' -> check Alcotest.bool (an ^ ": later seeks still work") true (tg' == tg)
      | Error e -> Alcotest.failf "seek after the failure: %s" (Replay.error_to_string e))

(** What belongs to one stop does not outlive a seek: a breakpoint
    planted and a core fetched at one instant are gone at the next, whose
    core is its own. *)
let stop_state_case arch () =
  let s = three_stops arch in
  let d = s.Testkit.d and an = Arch.name arch in
  let rp = open_replay s in
  let tg = reach (Replay.seek_end rp) in
  ignore (Ldb.break_function d tg "main" : int);
  let first = Ldb.core_bytes tg in
  let tg = reach (Replay.rcontinue rp) in
  check Alcotest.int (an ^ ": no breakpoint carried over") 0 (Hashtbl.length tg.Ldb.tg_breaks);
  let ev, delta = Replay.position_cursor rp in
  let fresh = Ldb.core_bytes (reach (Replay.seek (open_replay s) ~ev ~delta)) in
  check Alcotest.bool (an ^ ": the core is the new instant's") true (Ldb.core_bytes tg = fresh);
  check Alcotest.bool (an ^ ": which differs from the old one") false (fresh = first)

(** The REPL takes a trip into history as one server session: the trip's
    k motions admit it once, and [present] closes it. *)
let repl_trip_case arch () =
  let sv, esess = Repl.server ~arch in
  let p = Host.launch ~arch loop_sources in
  let live =
    match
      Server.open_session sv ~name:"cli" ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p)
    with
    | Ok id -> id
    | Error r -> Alcotest.failf "open: %s" (Server.refusal_to_string r)
  in
  let k = 4 in
  let script =
    [ "record 16"; "break bump"; "c"; "c"; "c" ]
    @ List.init k (fun i -> if i mod 2 = 0 then "rstep" else "rcontinue")
    @ [ "present"; "rstep" ]
  in
  let file = Filename.temp_file "trip" ".txt" in
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) script);
  In_channel.with_open_text file (fun ic -> Repl.repl ~ic sv ~esess ~live ~proc:(Some p));
  Sys.remove file;
  let an = Arch.name arch in
  check Alcotest.int (an ^ ": the live session and one per trip") 3
    (Server.stats sv).Server.sv_opened;
  let state id = Option.map Server.state_name (Server.session_state sv id) in
  check
    Alcotest.(list (option string))
    (an ^ ": present closed the first trip's session, and only it")
    [ Some "healthy"; Some "closed"; Some "healthy" ]
    (List.map state [ live; live + 1; live + 2 ])

(** Salvage: damage ends the usable prefix with a typed report instead
    of an exception, and every prefix of a trace is itself a trace. *)
let salvage_case () =
  let s = Testkit.debug_session ~arch:Arch.Vax writes_sources in
  Ldb.start_record s.Testkit.tg ~spacing:16;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "finish" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
  let bytes = Ldb.trace_bytes s.Testkit.tg in
  let full =
    match Trace.of_string bytes with
    | Ok (tr, []) -> tr
    | _ -> Alcotest.fail "pristine trace did not decode cleanly"
  in
  let nev = List.length full.Trace.tr_events in
  check Alcotest.bool "the recording captured several events" true (nev > 2);
  (* truncation: drop the tail mid-record *)
  (match Trace.of_string (String.sub bytes 0 (String.length bytes - 3)) with
  | Ok (tr, [ Trace.Truncated _ ]) ->
      check Alcotest.bool "truncated trace keeps a strict prefix" true
        (List.length tr.Trace.tr_events < nev)
  | Ok (_, ws) ->
      Alcotest.failf "expected one truncation report, got %d" (List.length ws)
  | Error m -> Alcotest.failf "truncated trace hard-failed: %s" m);
  (* corruption: flip a byte near the end; the damaged record is
     reported by CRC and everything before it survives *)
  let corrupt = Bytes.of_string bytes in
  let i = String.length bytes - 2 in
  Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0xff));
  (match Trace.of_string (Bytes.to_string corrupt) with
  | Ok (tr, [ w ]) ->
      (match w with
      | Trace.Bad_crc _ | Trace.Bad_record _ | Trace.Truncated _ -> ());
      check Alcotest.bool "corrupt trace keeps a strict prefix" true
        (List.length tr.Trace.tr_events < nev);
      check Alcotest.bool "salvage report renders" true
        (String.length (Trace.salvage_to_string w) > 0)
  | Ok (_, ws) -> Alcotest.failf "expected one salvage report, got %d" (List.length ws)
  | Error m -> Alcotest.failf "corrupt trace hard-failed: %s" m);
  (* header damage is a hard error, not a quiet empty history *)
  let magicless = Bytes.of_string bytes in
  Bytes.set magicless 0 'X';
  match Trace.of_string (Bytes.to_string magicless) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic decoded"

(** Traces recorded before trace compaction ("LDBTRACE1": no compression
    flag in 'C' bodies, cores stored raw) still decode — the decoder
    keys the checkpoint layout on the magic, so old recordings survive
    the format bump instead of failing with a confusing flag error. *)
let v1_compat_case () =
  let u32 = Ldb_util.Bytecodec.add_u32 and str = Ldb_util.Bytecodec.add_str in
  let body_of = function
    | Trace.Req r -> ('Q', Proto.encode_request r)
    | Trace.Stop { signal; code; pc; instrs } ->
        let b = Buffer.create 16 in
        List.iter (u32 b) [ signal; code; pc; instrs ];
        ('S', Buffer.contents b)
    | Trace.Exit { status; instrs } ->
        let b = Buffer.create 8 in
        List.iter (u32 b) [ status; instrs ];
        ('X', Buffer.contents b)
    | Trace.Checkpoint ck ->
        (* the v1 layout: kind/a/b then the raw core length directly,
           with no compression flag byte in between *)
        let b = Buffer.create 64 in
        u32 b ck.Trace.ck_ev;
        u32 b ck.Trace.ck_delta;
        (match ck.Trace.ck_status with
        | Trace.Ck_running ->
            Buffer.add_char b 'r';
            u32 b 0;
            u32 b 0
        | Trace.Ck_stopped { signal; code } ->
            Buffer.add_char b 's';
            u32 b signal;
            u32 b code
        | Trace.Ck_exited status ->
            Buffer.add_char b 'x';
            u32 b status;
            u32 b 0);
        str b ck.Trace.ck_stored;
        ('C', Buffer.contents b)
  in
  let ck =
    { Trace.ck_ev = 1; ck_delta = 7;
      ck_status = Trace.Ck_stopped { signal = 5; code = 0 };
      (* Trace treats the core as opaque bytes; content is not parsed here *)
      ck_stored = "pretend-core-bytes \x00\x01\x02 with runs aaaaaaaaaaaa";
      ck_packing = Trace.Raw }
  in
  let events =
    [ Trace.Req Proto.Continue;
      Trace.Stop { signal = 5; code = 0; pc = 0x40; instrs = 9 };
      Trace.Checkpoint ck;
      Trace.Exit { status = 0; instrs = 3 } ]
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "LDBTRACE1";
  str b (Arch.name Arch.Mips);
  u32 b 100;
  u32 b 8;
  Buffer.add_char b 'S';
  List.iter
    (fun e ->
      let tag, body = body_of e in
      Buffer.add_char b tag;
      u32 b (String.length body);
      Buffer.add_string b body;
      u32 b (Ldb_util.Crc32.string body))
    events;
  match Trace.of_string (Buffer.contents b) with
  | Ok (tr, []) ->
      check Alcotest.int "v1 trace decodes every record" (List.length events)
        (List.length tr.Trace.tr_events);
      check Alcotest.bool "v1 checkpoint core survives raw" true
        (tr.Trace.tr_events = events)
  | Ok (_, w :: _) ->
      Alcotest.failf "v1 trace salvaged: %s" (Trace.salvage_to_string w)
  | Error m -> Alcotest.failf "v1 trace hard-failed: %s" m

(** A replay session over a truncated trace degrades to the shorter
    history instead of raising. *)
let truncated_replay_case () =
  let s = Testkit.debug_session ~arch:Arch.Mips loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:8;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  for _ = 1 to 2 do
    expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg))
  done;
  let bytes = Ldb.trace_bytes s.Testkit.tg in
  let image = Ldb.load_image s.Testkit.d ~loader_ps:s.Testkit.proc.Host.hp_loader_ps in
  let cut = String.sub bytes 0 (String.length bytes * 3 / 4) in
  match Replay.of_string s.Testkit.d ~name:"cut" ~image cut with
  | Ok (rp, _ :: _) -> (
      (* the shortened history still materializes *)
      match Replay.seek_end rp with
      | Ok tg -> ignore (view s.Testkit.d tg ~vars:[ "total" ] : string)
      | Error e -> Alcotest.failf "seek over salvaged trace: %s" (Replay.error_to_string e))
  | Ok (_, []) -> Alcotest.fail "cutting a quarter of the trace reported no salvage"
  | Error (`Bad_trace _) -> ()  (* cut inside the header: typed refusal is fine *)
  | Error e -> Alcotest.failf "unexpected error: %s" (Replay.error_to_string e)

(** A CRC-valid trace whose checkpoint core carries a floating-register
    width no reader decodes is refused typed when replay first restores
    that checkpoint, instead of escaping as an untyped exception. *)
let odd_freg_checkpoint_case () =
  let s = Testkit.debug_session ~arch:Arch.Mips loop_sources in
  Ldb.start_record s.Testkit.tg ~spacing:8;
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bump" : int);
  expect_stop "continue" (Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg));
  let tr =
    match Trace.of_string (Ldb.trace_bytes s.Testkit.tg) with
    | Ok (tr, []) -> tr
    | _ -> Alcotest.fail "pristine trace did not decode cleanly"
  in
  let narrow ck =
    match Result.bind (Trace.checkpoint_core ck) Core.of_string with
    | Ok (co, []) ->
        Core.to_string
          { co with Core.co_freg_bytes = 4;
                    co_fregs = Array.map (fun _ -> "\x00\x00\x80\x3f") co.Core.co_fregs }
    | _ -> Alcotest.fail "pristine checkpoint core did not decode cleanly"
  in
  let hostile =
    { tr with
      Trace.tr_events =
        List.map
          (function
            | Trace.Checkpoint ck ->
                Trace.Checkpoint { ck with Trace.ck_stored = narrow ck; ck_packing = Trace.Fresh }
            | e -> e)
          tr.Trace.tr_events }
  in
  let image = Ldb.load_image s.Testkit.d ~loader_ps:s.Testkit.proc.Host.hp_loader_ps in
  match Replay.of_string s.Testkit.d ~name:"narrow" ~image (Trace.to_string hostile) with
  | Error (`Bad_trace _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Replay.error_to_string e)
  | Ok (rp, _) -> (
      match Replay.seek_end rp with
      | Error (`Bad_trace _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Replay.error_to_string e)
      | Ok _ -> Alcotest.fail "replayed from a checkpoint whose float registers are unreadable")

let () =
  let arch_cases name case =
    List.map
      (fun arch -> Alcotest.test_case (name ^ " on " ^ Arch.name arch) `Quick (case arch))
      Arch.all
  in
  Alcotest.run "replay"
    [
      ("codec", [ prop_checkpoint_roundtrip; prop_decode_total; prop_restore_total ]);
      ( "salvage",
        [ Alcotest.test_case "typed reports, usable prefix" `Quick salvage_case;
          Alcotest.test_case "v1 (pre-compaction) traces decode" `Quick
            v1_compat_case;
          Alcotest.test_case "odd float width in a checkpoint refused typed" `Quick
            odd_freg_checkpoint_case;
          Alcotest.test_case "corrupt compressed checkpoint refused on restore" `Quick
            lazy_decode_case;
          Alcotest.test_case "replay over a truncated trace" `Quick
            truncated_replay_case ] );
      ("rstep", arch_cases "reverse-step differential" timeline_case);
      ( "seek",
        arch_cases "one target, one reconnect per seek" one_target_case
        @ arch_cases "a failed seek stays put" failed_seek_case
        @ arch_cases "breakpoints and core do not carry over" stop_state_case
        @ arch_cases "the REPL: one history session per trip" repl_trip_case );
      ("rcontinue", arch_cases "reverse-continue differential" rcontinue_case);
      ( "rwatch",
        [ Alcotest.test_case "run back to last write" `Quick rwatch_case ] );
      ( "conditions",
        arch_cases "nub-side condition: replayed stops = live" (cond_record_case ~before:false)
        @ arch_cases "condition set before recording: replayed stops = live"
            (cond_record_case ~before:true) );
      ( "cost",
        [ Alcotest.test_case "record overhead under 2x" `Quick record_overhead_case;
          Alcotest.test_case "spacing sweep: bounded re-execution" `Quick
            spacing_sweep_case ] );
      ( "determinism",
        [ Alcotest.test_case "identical traces, identical end state" `Quick
            determinism_case;
          Alcotest.test_case "polled fetch = one final fetch" `Quick polled_fetch_case ]
        @ arch_cases "fixed fault: replayed dump = live dump"
            (fixed_fault_case ~spacing:1_000_000 ~at_fault:false)
        @ arch_cases "fault checkpoint: replayed dump = live dump"
            (fixed_fault_case ~spacing:1 ~at_fault:true)
        @ arch_cases "stepi off a breakpoint: replayed end = live" stepi_end_case );
    ]
