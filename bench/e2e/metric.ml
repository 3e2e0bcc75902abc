(** The benchmark's schema, defined once: workloads, metric names, units,
    directions and bounds.  [ldbbench describe] renders it as
    [BENCHMARK.json], which a dune rule keeps identical to the committed
    file; [ldbbench compare] judges two sets of runs by it. *)

type better = Lower | Higher

type def = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: the share of the parent's median it may worsen by *)
}

let command = [ "sh"; "bench/e2e/run.sh" ]
let paths = [ "bench/e2e" ]

(** Seconds one run measures. *)
let run_seconds = 20

let workloads =
  [
    ( "inspect_deep",
      "inspect mix at stops 22 frames deep in an 8-unit program: Ldb, frame walkers, Symtab, \
       Interp and fetch RPCs do the work, the simulated CPU almost none" );
    ( "stop_go",
      "hot loop with a nub-side condition and toggled breakpoints, assign and read-back at each \
       stop: stores beside fetches on one transport; Nub, Bpcode and Cpu dominate" );
    ( "wire_fanout",
      "2 clients over Swire and the Evloop DRR scheduler, sessions opened and closed up to a cap \
       of 100: the wire codec, scheduling, session open and the image cache" );
    ( "time_travel",
      "record, then rstep/rcontinue/rwatch with inspects at historical positions: Replay \
       checkpoint restore, Trace and Lzw decode and re-execution" );
  ]

let e2e ?(bound = 0.25) name unit better = { name; unit; better; bound }
let layer name unit better = { name; unit; better; bound = 0. }

(** What a user of the debugger sees.  A latency is the median and the
    highest percentile that keeps at least 10 samples beyond it at this
    run length; attach has 100 to 500 samples a run, so p90.  Every
    timing is in reference units (see [Harness.reference_loop]).

    Bounds come from rounds of ten seeded runs per workload on a shared
    2-vCPU host: after normalization the worst workload's quartile spread
    was up to 20% for a timing and up to 6% for the heap, so timings get
    the 25% ceiling and the heap 15%. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower;
    e2e "cmds_per_s" "1/s" Higher;
    e2e "heap_peak_mb" "MB" Lower ~bound:0.15;
    e2e "inspect_p50_us" "us" Lower;
    e2e "inspect_p99_us" "us" Lower;
    e2e "resume_p50_us" "us" Lower;
    e2e "resume_p99_us" "us" Lower;
    e2e "modify_p50_us" "us" Lower;
    e2e "modify_p99_us" "us" Lower;
    e2e "attach_p50_us" "us" Lower;
    e2e "attach_p90_us" "us" Lower;
  ]

(** One layer each, from the traced run.  A layer a workload does not
    cross reads 0 there. *)
let per_layer =
  [
    layer "transport.rpcs_per_backtrace" "rpcs" Lower;
    layer "transport.fetch_rpcs_per_cmd" "rpcs/cmd" Lower;
    layer "transport.bytes_from_nub_per_cmd" "B/cmd" Lower;
    layer "transport.store_rpcs_per_cmd" "rpcs/cmd" Lower;
    layer "transport.run_rpcs_per_cmd" "rpcs/cmd" Lower;
    layer "transport.retries" "count" Lower;
    layer "ldb.self_pct" "%" Lower;
    layer "interp.scan_misses_per_cmd" "count/cmd" Lower;
    layer "symtab.units_forced_measured" "count" Lower;
    layer "exprserver.call_us_p50" "us" Lower;
    layer "exprserver.rpcs_per_call" "rpcs" Lower;
    layer "exprserver.self_pct" "%" Lower;
    layer "nub.pump_us_per_cmd" "us" Lower;
    layer "nub.pump_calls_per_cmd" "count/cmd" Lower;
    layer "nub.self_pct" "%" Lower;
    layer "cpu.insns_per_cmd" "insns/cmd" Lower;
    layer "cpu.ns_per_insn" "ns" Lower;
    layer "bpcode.suppressed_per_stop" "traps/stop" Higher;
    layer "swire.bytes_in_per_cmd" "B/cmd" Lower;
    layer "swire.bytes_out_per_cmd" "B/cmd" Lower;
    layer "swire.self_pct" "%" Lower;
    layer "evloop.self_pct" "%" Lower;
    layer "evloop.wait_ticks_p99" "ticks" Lower;
    layer "host.launch_us_p50" "us" Lower;
    layer "host.self_pct" "%" Lower;
    layer "ldb.connect_us_p50" "us" Lower;
    layer "server.image_cache_hits" "count" Higher;
    layer "replay.reexec_insns_per_rstep" "insns" Lower;
    layer "replay.checkpoints" "count" Lower;
    layer "replay.trace_bytes" "B" Lower;
    layer "replay.self_pct" "%" Lower;
    layer "gc.minor_words_per_cmd" "words/cmd" Lower;
    layer "gc.major_collections_per_kcmd" "1/kcmd" Lower;
    layer "span.coverage_pct" "%" Higher;
    layer "span.overhead_pct" "%" Lower;
  ]

let find name = List.find (fun d -> d.name = name) (end_to_end @ per_layer)

(* --- BENCHMARK.json ------------------------------------------------------------- *)

let str s = "\"" ^ Ldb_util.Json.escape s ^ "\""
let better_str = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () : string =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let list items render =
    add "[\n";
    List.iteri
      (fun i x ->
        add "    ";
        add (render x);
        if i < List.length items - 1 then add ",";
        add "\n")
      items;
    add "  ]"
  in
  add "{\n";
  add (Printf.sprintf "  \"command\": [%s],\n" (String.concat ", " (List.map str command)));
  add (Printf.sprintf "  \"paths\": [%s],\n" (String.concat ", " (List.map str paths)));
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": ";
  list workloads (fun (n, why) -> Printf.sprintf "{\"name\": %s, \"why\": %s}" (str n) (str why));
  add ",\n  \"end_to_end\": ";
  list end_to_end (fun d ->
      Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (str d.name)
        (str d.unit) (str (better_str d.better)) d.bound);
  add ",\n  \"per_layer\": ";
  list per_layer (fun d ->
      Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (str d.name) (str d.unit)
        (str (better_str d.better)));
  add "\n}\n";
  Buffer.contents b

(* --- one run's result line ------------------------------------------------------ *)

(** The last line a run prints.  Every value is printed with all its
    digits; a metric a run could not measure is a bug in the workload,
    reported as [correct = false] by the caller, never as a made-up 0. *)
let result_json ~correct ~attempted ~failed (values : (def * float) list) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (d, v) ->
            Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (str d.name) v (str d.unit))
          values))

(* --- comparing two sets of runs ------------------------------------------------- *)

(** Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
    computes them (the exclusive method). *)
let quartiles (xs : float list) : float * float * float =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs = let _, m, _ = quartiles xs in m

(** Relative spread: quartile distance as a share of the median. *)
let spread xs = let q1, m, q3 = quartiles xs in if m = 0. then 0. else (q3 -. q1) /. abs_float m

(** How much worse [b] is than [a] for this metric, as a share of [a]
    (negative: better). *)
let worsening (d : def) ~a ~b =
  if a = 0. then 0. else match d.better with Lower -> (b -. a) /. a | Higher -> (a -. b) /. a

(** A verdict by the rule the benchmark fixes: a metric whose run-to-run
    spread exceeds its bound is unresolved, unless every run of [b]
    beats every run of [a]. *)
let verdict (d : def) (a : float list) (b : float list) =
  let w = worsening d ~a:(median a) ~b:(median b) in
  let all_better =
    match d.better with
    | Lower -> List.fold_left max neg_infinity b < List.fold_left min infinity a
    | Higher -> List.fold_left min infinity b > List.fold_left max neg_infinity a
  in
  if spread a > d.bound || spread b > d.bound then if all_better then `Better else `Unresolved
  else if w > d.bound then `Worse
  else if w < -.d.bound then `Better
  else `Same

(** Rows of a record file: [workload, trace, metric, value]. *)
let read_records (path : string) : (string * string * string * float) list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ w; t; m; v ] -> Option.map (fun v -> (w, t, m, v)) (float_of_string_opt v)
         | _ -> None)

(** One row per workload, one cell per end-to-end metric: how much
    worse B's median is than A's, marked [?] when unresolved, [!] when
    worse than the bound, [*] when better by more than the bound. *)
let compare_files (pa : string) (pb : string) : string =
  let ra = read_records pa and rb = read_records pb in
  let values rs w m =
    List.filter_map (fun (w', t, m', v) -> if w = w' && t = "0" && m = m' then Some v else None) rs
  in
  let b = Buffer.create 4096 in
  let cell s = Buffer.add_string b (Printf.sprintf " %15s" s) in
  Buffer.add_string b (Printf.sprintf "%-13s" "workload");
  List.iter (fun d -> cell d.name) end_to_end;
  Buffer.add_char b '\n';
  List.iter
    (fun (w, _) ->
      if values ra w "cmds_per_s" <> [] && values rb w "cmds_per_s" <> [] then begin
        Buffer.add_string b (Printf.sprintf "%-13s" w);
        List.iter
          (fun d ->
            match (values ra w d.name, values rb w d.name) with
            | [], _ | _, [] -> cell "-"
            | a, bv ->
                let mark =
                  match verdict d a bv with
                  | `Unresolved -> "?"
                  | `Worse -> "!"
                  | `Better -> "*"
                  | `Same -> " "
                in
                cell (Printf.sprintf "%+.1f%%%s" (100. *. worsening d ~a:(median a) ~b:(median bv)) mark))
          end_to_end;
        Buffer.add_char b '\n'
      end)
    workloads;
  Buffer.contents b
