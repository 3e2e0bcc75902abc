(** ldbbench: the end-to-end benchmark of the debugger.

    {v
    ldbbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE] [--record FILE]
    ldbbench [--seed N] [--seconds S] [--trace 0|1] [--record FILE]   all four workloads
    ldbbench describe                                                  print BENCHMARK.json
    ldbbench compare A B                                               judge two record files
    v}

    One run sets its workload up five times (set-up time is their
    median), then measures for [S] seconds.  An untraced run ([--trace
    0]) reports the end-to-end metrics.  A traced run traces alternate
    blocks of steps, for the per-layer metrics and the self-time table;
    the untraced blocks between them measure the tracer's own cost in the
    same run.  The last line of standard output is one JSON object;
    [--record] also appends the run's metrics to a file as
    [workload TAB trace TAB metric TAB value] rows for [compare].  Every
    reply is checked; a wrong one ends the run with exit code 1, and so
    does a declared metric the run could not measure.

    Without [--workload] each workload runs in its own child process,
    one at a time. *)

open Harness

(** Each workload's untimed preparation of its oracle, and its set-up. *)
let workloads : (string * ((Harness.t -> seed:int -> unit) * (Harness.t -> seed:int -> world))) list =
  let none _ ~seed:_ = () in
  [
    ("inspect_deep", (none, Inspect_deep.setup));
    ("stop_go", (none, Stop_go.setup));
    ("wire_fanout", (Wire_fanout.prepare, Wire_fanout.setup));
    ("time_travel", (none, Time_travel.setup));
  ]

(** Commands whose counts make up the per-layer count metrics: the
    seeded prefix of the traced phase every run executes. *)
let window = 10_000

(** Set-ups per run; [setup_s] is their median. *)
let setups = 5

let per a b = if b = 0 then 0. else float a /. float b
let secs ns = float ns /. 1e9
let p50 v = percentile (Vec.sorted v) 0.5

(* --- end-to-end metrics --------------------------------------------------------- *)

(** Each metric with its sample count, every timing in reference units
    (see {!Harness.reference_loop}).  Throughput is the median of the
    phase's one-second windows (the whole phase when it is shorter),
    latencies are {!blocked_percentile}s. *)
let e2e_values (h : Harness.t) ~setup_s ~seconds : (string * float * int) list =
  let heap = float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576. in
  let lat name c p =
    let v = h.lat.(cls_index c) in
    (name, blocked_percentile v p, v.Vec.n)
  in
  let rate =
    if h.rate.Vec.n = 0 then float h.commands /. seconds *. h.speed else p50 h.rate
  in
  [
    ("setup_s", setup_s, setups);
    ("cmds_per_s", rate, h.commands);
    ("heap_peak_mb", heap, 1);
    lat "inspect_p50_us" Inspect 0.5;
    lat "inspect_p99_us" Inspect 0.99;
    lat "resume_p50_us" Resume 0.5;
    lat "resume_p99_us" Resume 0.99;
    lat "modify_p50_us" Modify 0.5;
    lat "modify_p99_us" Modify 0.99;
    lat "attach_p50_us" Attach 0.5;
    lat "attach_p90_us" Attach 0.9;
  ]

(* --- per-layer metrics ---------------------------------------------------------- *)

(** Counts are over the counting window ([commands] of them); times and
    shares over every traced step. *)
let layer_values (h : Harness.t) ~(traced_cmds : int) ~(majors : int) ~(overhead : float) :
    (string * float) list =
  let c = Span.counter in
  let cmds = c "commands" in
  let total = max 1 (Span.total_self ()) in
  let share l = 100. *. float (Span.self l) /. float total in
  [
    ("transport.rpcs_per_backtrace", per (c "bt.rpcs") (c "bt.count"));
    ("transport.fetch_rpcs_per_cmd", per (c "transport.fetch") cmds);
    ("transport.bytes_from_nub_per_cmd", per (c "transport.bytes_from_nub") cmds);
    ("transport.store_rpcs_per_cmd", per (c "transport.store") cmds);
    ("transport.run_rpcs_per_cmd", per (c "transport.run") cmds);
    ("transport.retries", float (c "transport.retries"));
    ("ldb.self_pct", share Span.Ldb);
    ("interp.scan_misses_per_cmd", per (c "interp.scan_misses") cmds);
    ("symtab.units_forced_measured", float (c "symtab.forced"));
    ("exprserver.call_us_p50", p50 h.expr_us);
    ("exprserver.rpcs_per_call", per (c "exprserver.rpcs") (c "exprserver.calls"));
    ("exprserver.self_pct", share Span.Exprserver);
    ("nub.pump_us_per_cmd", float (Span.self Span.Nub) /. 1e3 /. float (max 1 traced_cmds));
    ("nub.pump_calls_per_cmd", per (c "nub.pumps") cmds);
    ("nub.self_pct", share Span.Nub);
    ("cpu.insns_per_cmd", per (c "cpu.insns") cmds);
    ("cpu.ns_per_insn", per (c "cpu.busy_ns") (c "cpu.insns"));
    ("bpcode.suppressed_per_stop", per (c "bpcode.suppressed") (c "stops"));
    ("swire.bytes_in_per_cmd", per (c "swire.bytes_in") cmds);
    ("swire.bytes_out_per_cmd", per (c "swire.bytes_out") cmds);
    ("swire.self_pct", share Span.Swire);
    ("evloop.self_pct", share Span.Evloop);
    ("evloop.wait_ticks_p99", if h.wait_ticks.Vec.n = 0 then 0. else percentile (Vec.sorted h.wait_ticks) 0.99);
    ("host.launch_us_p50", p50 h.launch_us);
    ("host.self_pct", share Span.Host);
    ("ldb.connect_us_p50", p50 h.connect_us);
    ("server.image_cache_hits", float (c "server.image_cache_hits"));
    ("replay.reexec_insns_per_rstep", per (c "replay.reexec") (c "replay.rsteps"));
    ("replay.checkpoints", per (c "replay.checkpoints") (c "replay.opens"));
    ("replay.trace_bytes", per (c "replay.trace_bytes") (c "replay.opens"));
    ("replay.self_pct", share Span.Replay);
    ("gc.minor_words_per_cmd", per (c "gc.minor_words") cmds);
    ("gc.major_collections_per_kcmd", 1000. *. per majors traced_cmds);
    ("span.coverage_pct", 100. -. share Span.Bench);
    ("span.overhead_pct", overhead);
  ]

(* --- one run --------------------------------------------------------------------- *)

let append_record path ~name ~trace values =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun (m, v) -> Printf.fprintf oc "%s\t%d\t%s\t%.17g\n" name (if trace then 1 else 0) m v) values;
  close_out oc

let run_one ~name ~prepare ~setup ~seed ~seconds ~trace ~spans ~record : bool =
  Ldb_ldb.Symtab.force_hook := (fun _ -> Span.count "symtab.forced" 1);
  let h = Harness.create () in
  let failure = ref None in
  let guard f =
    try f () with
    | Mismatch m -> failure := Some m
    | e -> failure := Some (Printexc.to_string e)
  in
  let guard f = if !failure = None then guard f in
  guard (fun () -> prepare h ~seed);
  for _ = 1 to Array.length h.recent do
    ignore (Harness.calibrate h)
  done;
  let durations = ref [] and world = ref None in
  let n_setups = if !Harness.smoke then 1 else setups in
  for _ = 1 to n_setups do
    world := None;
    let t0 = Span.now () in
    guard (fun () -> world := Some (setup h ~seed));
    durations := secs (Span.now () - t0) /. h.speed :: !durations;
    ignore (Harness.calibrate h)
  done;
  let setup_s = Metric.median !durations in
  (* run [f] on successive steps until [seconds] pass or the workload
     ends, timing the reference loop every 100 ms between steps; the
     loop's own time is left out of the throughput windows.  A short run
     goes on past [seconds] until it has two blocks of steps and a
     sample in every latency class, for at most 30 s more. *)
  let phase seconds (f : world -> int -> bool) =
    Harness.reset h;
    let start = Span.now () in
    let deadline = start + int_of_float (seconds *. 1e9) in
    let give_up = deadline + 30_000_000_000 in
    (match !world with
    | Some w ->
        guard (fun () ->
            let i = ref 0 and window = ref start and done_ = ref 0 in
            let calibrated = ref start and idle = ref 0 in
            let seen () = !i >= 8 && Array.for_all (fun v -> v.Vec.n > 0) h.lat in
            let more () =
              let t = Span.now () in
              (t < deadline || not (seen ())) && t < give_up
            in
            while more () && f w !i do
              incr i;
              let t = Span.now () in
              if t - !calibrated >= 100_000_000 then begin
                idle := !idle + Harness.calibrate h;
                calibrated := Span.now ()
              end;
              if t - !window >= 1_000_000_000 then begin
                let busy = secs (t - !window - !idle) in
                Vec.push h.rate (float (h.commands - !done_) /. busy *. h.speed);
                window := Span.now ();
                idle := 0;
                done_ := h.commands
              end
            done)
    | None -> ());
    secs (Span.now () - start)
  in
  let values =
    if not trace then begin
      let measured = phase seconds (fun w _ -> w.step ()) in
      let vals = e2e_values h ~setup_s ~seconds:measured in
      Printf.printf "host slowdown %.3f (reference loop %.0f us, %d timings)\n" h.speed
        (h.speed *. Harness.reference_ns /. 1e3) h.calibrations;
      List.iter
        (fun (m, v, n) ->
          Printf.printf "%-16s %14.3f %-4s (n=%d)\n" m v (Metric.find m).Metric.unit n)
        vals;
      List.map (fun (m, v, _) -> (m, v)) vals
    end
    else begin
      (* blocks of four steps — one round over the targets — alternate
         traced and untraced: the tracer's cost is the gap between the two
         step-time means of one run *)
      Span.reset ();
      let step_ns = [| 0; 0 |] and steps = [| 0; 0 |] in
      let traced_cmds = ref 0 and majors = ref 0 in
      let major () = (Gc.quick_stat ()).Gc.major_collections in
      let _ =
        phase seconds (fun w i ->
            let k = i / 4 mod 2 in
            Span.on := k = 0;
            Span.counting := k = 0 && Span.counter "commands" < window;
            let c0 = h.commands and m0 = Gc.minor_words () and j0 = major () in
            let s0 = snd (Ldb_pscript.Interp.scan_stats w.interp) in
            let t0 = Span.now () in
            let more = Fun.protect ~finally:(fun () -> Span.on := false) w.step in
            step_ns.(k) <- step_ns.(k) + (Span.now () - t0);
            steps.(k) <- steps.(k) + 1;
            if k = 0 then begin
              traced_cmds := !traced_cmds + (h.commands - c0);
              majors := !majors + (major () - j0);
              Span.count "gc.minor_words" (int_of_float (Gc.minor_words () -. m0));
              Span.count "interp.scan_misses" (snd (Ldb_pscript.Interp.scan_stats w.interp) - s0)
            end;
            Span.counting := false;
            more)
      in
      print_string (Span.table ~commands:!traced_cmds);
      (match spans with Some path -> Span.dump path | None -> ());
      let overhead = 100. *. ((per step_ns.(0) steps.(0) /. per step_ns.(1) steps.(1)) -. 1.) in
      let vals = layer_values h ~traced_cmds:!traced_cmds ~majors:!majors ~overhead in
      List.iter (fun (m, v) -> Printf.printf "%-34s %14.3f %s\n" m v (Metric.find m).Metric.unit) vals;
      vals
    end
  in
  let declared = List.map (fun d -> d.Metric.name) (if trace then Metric.per_layer else Metric.end_to_end) in
  let measurable =
    List.map fst values = declared && List.for_all (fun (_, v) -> Float.is_finite v) values
  in
  let failed = if !failure = None then 0 else 1 in
  (match !failure with Some m -> Printf.printf "MISMATCH: %s\n" m | None -> ());
  if not measurable then print_endline "a declared metric was not measured";
  let correct = failed = 0 && measurable in
  (match record with Some path -> append_record path ~name ~trace values | None -> ());
  print_endline
    (Metric.result_json ~correct ~attempted:(max 1 (h.commands + failed)) ~failed
       (List.map (fun (m, v) -> (Metric.find m, if Float.is_finite v then v else 0.)) values));
  correct

(* --- the command line --------------------------------------------------------------- *)

let usage =
  "ldbbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--record \
   FILE] [--smoke]\n\
   ldbbench describe\n\
   ldbbench compare A B"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref (float Metric.run_seconds) in
  let trace = ref false and spans = ref None and record = ref None and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of the four workloads (default: all)");
      ("--seed", Arg.Set_int seed, "N seed of the generated scripts");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 end-to-end (0) or per-layer (1) metrics" );
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE write the traced spans as JSON lines");
      ("--record", Arg.String (fun s -> record := Some s), "FILE append metric rows for compare");
      ("--smoke", Arg.Set Harness.smoke, " tiny sizes, one set-up (for the test suite)");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := !anon @ [ a ]) usage with
  | Arg.Help m -> print_string m; exit 0
  | Arg.Bad m -> prerr_string m; exit 2);
  match !anon with
  | [ "describe" ] -> print_string (Metric.benchmark_json ())
  | [ "compare"; a; b ] -> print_string (Metric.compare_files a b)
  | _ :: _ -> prerr_endline usage; exit 2
  | [] when !workload <> "" -> (
      match List.assoc_opt !workload workloads with
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
      | Some (prepare, setup) ->
          let ok =
            run_one ~name:!workload ~prepare ~setup ~seed:!seed ~seconds:!seconds ~trace:!trace
              ~spans:!spans ~record:!record
          in
          exit (if ok then 0 else 1))
  | [] ->
      let child w =
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed; "--seconds";
            string_of_float !seconds; "--trace"; (if !trace then "1" else "0") ]
          @ (match !record with Some r -> [ "--record"; r ] | None -> [])
          @ if !Harness.smoke then [ "--smoke" ] else []
        in
        Printf.printf "== %s\n%!" w;
        let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false
      in
      let results = List.map (fun (w, _) -> child w) workloads in
      exit (if List.for_all Fun.id results then 0 else 1)
