(** time_travel: each program run is one cycle.  The client stops at the
    first outer iteration, starts recording with checkpoint spacing 256,
    continues through [fwd] more stops (reading [total] and [marker] and
    assigning [marker] at each), then sends [motions] seeded reverse
    motions — about 70% rstep, 25% rcontinue, 5% rwatch on [total] — each
    followed by inspects at the historical position.  Back in the present
    the program runs to its exit and is relaunched.

    The first motion of a cycle fetches the trace and opens the replay
    session inside its own latency, as the interactive debugger does. *)

open Ldb_machine
open Harness
module Travel = Programs.Travel
module Replay = Ldb_ldb.Replay
module Eval = Ldb_exprserver.Eval

let spacing = 256
let fwd = 8
let outer = fwd + 1
let motions () = if !Harness.smoke then 8 else 32

(** Where history is: at forward stop [s] (with or without the stores
    the debugger made there), or inside the run that ends at stop [s]. *)
type pos = At of int * bool | In of int

type target = {
  built : Ldb_link.Link.image * string;
  image : Ldb.image;
  sess : Eval.session;
  mutable proc : Host.process;
  mutable tg : Ldb.target;
  seen : (int * int) array;  (** ([total], [marker]) read at each forward stop *)
  poked : int array;  (** the [marker] value assigned at each forward stop *)
}

let line = Travel.stop_line ~outer
let total_at = Travel.total_at

let reverse (h : Harness.t) (d : Ldb.t) rng (t : target) =
  let rp = ref None in
  let pos = ref (At (fwd, true)) and cur = ref (total_at fwd) in
  let hist = ref t.tg in
  let open_replay () =
    match !rp with
    | Some r -> r
    | None ->
        let bytes = ldb (fun () -> Ldb.trace_bytes t.tg) in
        let r =
          match Span.span Span.Replay (fun () -> Replay.of_string d ~name:"replay" ~image:t.image bytes) with
          | Ok (r, []) -> r
          | Ok (_, _ :: _) -> raise (Mismatch "time_travel: the trace came back damaged")
          | Error e -> raise (Mismatch ("time_travel: " ^ Replay.error_to_string e))
        in
        Span.count "replay.opens" 1;
        Span.count "replay.checkpoints" (Replay.checkpoint_count r);
        Span.count "replay.trace_bytes" (String.length bytes);
        rp := Some r;
        r
  in
  let moved = function
    | Ok tg ->
        Harness.instrument (Transport.endpoint (Ldb.transport tg));
        hist := tg;
        tg
    | Error e -> raise (Mismatch ("time_travel: " ^ Replay.error_to_string e))
  in
  for _ = 1 to motions () do
    let x = Random.State.float rng 1. in
    let kind =
      match !pos with
      | At (0, _) -> `End
      | _ -> if x < 0.70 then `Rstep else if x < 0.95 || !cur = total_at 0 then `Rcontinue else `Rwatch
    in
    let before = !cur in
    let tg =
      cmd h Resume (fun () ->
          let r = open_replay () in
          match kind with
          | `End -> moved (Span.span Span.Replay (fun () -> Replay.seek_end r))
          | `Rstep -> moved (Span.span Span.Replay (fun () -> Replay.rstep r))
          | `Rcontinue -> moved (Span.span Span.Replay (fun () -> Replay.rcontinue r))
          | `Rwatch -> (
              match ldb (fun () -> Ldb.variable_range d !hist (Ldb.top_frame d !hist) "total") with
              | Error m -> raise (Mismatch m)
              | Ok (_, addr, size) ->
                  moved
                    (Result.map fst
                       (Span.span Span.Replay (fun () -> Replay.run_back_to_write r ~addr ~size)))))
    in
    let r = Option.get !rp in
    (pos :=
       match (kind, !pos) with
       | `End, _ -> At (fwd, true)
       | `Rcontinue, (At (s, _) | In s) -> At (s - 1, false)
       | `Rstep, At (s, _) -> In s
       | `Rstep, In s -> if snd (Replay.position_cursor r) = 0 then At (s - 1, true) else In s
       | `Rwatch, _ ->
           let rec run s = if total_at s >= before then s else run (s + 1) in
           In (run 1));
    if kind = `Rstep then begin
      Span.count "replay.rsteps" 1;
      Span.count "replay.reexec" (Replay.last_seek_cost r)
    end;
    (* inspect the historical instant *)
    let total = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.read_int_var d tg (Ldb.top_frame d tg) "total")) in
    (match !pos with
    | At (s, _) -> expect_int (Printf.sprintf "replayed total at stop %d" s) ~want:(fst t.seen.(s)) total
    | In s ->
        check
          (Printf.sprintf "replayed total %d inside run %d" total s)
          (total_at (s - 1) <= total && total <= total_at s));
    if kind = `Rwatch then expect_int "total after rwatch" ~want:before total;
    cur := total;
    let names =
      counting_backtrace (fun () ->
          cmd ~tg h Inspect (fun () ->
              ldb (fun () -> List.map (Ldb.frame_function d tg) (Ldb.backtrace d tg))))
    in
    (* between stopping points the pc may sit in bump's prologue or
       epilogue, where the walk legitimately ends at bump *)
    check
      ("replayed backtrace " ^ String.concat "," names)
      (match (!pos, names) with
      | At _, [ "main" ] -> true
      | In _, ([ "main" ] | [ "bump" ] | [ "bump"; "main" ]) -> true
      | _ -> false);
    let v, _ =
      cmd ~tg h Inspect (fun () ->
          Harness.exprserver h (fun () -> Eval.evaluate d tg (Ldb.top_frame d tg) t.sess "total + marker"))
    in
    let marker = int_of_string v - total in
    check
      (Printf.sprintf "replayed marker %d" marker)
      (match !pos with
      | At (s, false) -> marker = snd t.seen.(s)
      | At (s, true) -> marker = t.poked.(s)
      | In s -> marker = t.poked.(s - 1) || marker = s - 1)
  done;
  match Replay.target (Option.get !rp) with Some tg -> Ldb.remove_target d tg | None -> ()

(** One program run: stop, record, run forward, travel back, exit. *)
let cycle (h : Harness.t) (d : Ldb.t) rng (t : target) =
  let tg = t.tg in
  let top () = Ldb.top_frame d tg in
  ignore (cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.break_line d tg ~line)));
  for s = 0 to fwd do
    let st = cmd ~tg h Resume (fun () -> ldb (fun () -> Ldb.continue_ d tg)) in
    check "time_travel: expected a stop" (stopped st);
    if s = 0 then cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.start_record tg ~spacing));
    let total = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.read_int_var d tg (top ()) "total")) in
    let marker = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.read_int_var d tg (top ()) "marker")) in
    expect_int "forward total" ~want:(total_at s) total;
    expect_int "forward marker" ~want:(max 0 (s - 1)) marker;
    t.seen.(s) <- (total, marker);
    let v = 1000 + Random.State.int rng 1000 in
    check "assign marker" (cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.assign_int d tg (top ()) "marker" v)) = Ok ());
    t.poked.(s) <- v
  done;
  reverse h d rng t;
  let st = cmd ~tg h Resume (fun () -> ldb (fun () -> Ldb.continue_ d tg)) in
  check "time_travel: expected an exit" (st = Ok (Ldb.Exited 0));
  expect_str "time_travel output" ~want:(Travel.output ~outer) (Host.output t.proc);
  let proc, tg = relaunch h d ~image:t.image ~name:"travel" t.built tg in
  t.proc <- proc;
  t.tg <- tg

let setup (h : Harness.t) ~(seed : int) : world =
  let rng = Random.State.make [| seed |] in
  let d = Ldb.create () in
  let targets =
    List.map
      (fun arch ->
        let built, image, proc, tg = first_session h d ~name:"travel" ~arch (Travel.sources ~outer) in
        { built; image; sess = Eval.start ~arch; proc; tg; seen = Array.make (fwd + 1) (0, 0);
          poked = Array.make (fwd + 1) 0 })
      Arch.all
  in
  round_robin d ~warm:1 (Array.of_list targets) (cycle h d rng)
