(** What every workload shares: timed commands sorted into latency
    classes and normalized by the host's current speed, the correctness
    check, and debugger↔nub channels whose pump and send path report to
    {!Span}. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Transport = Ldb_ldb.Transport
module Nub = Ldb_nub.Nub
module Chan = Ldb_nub.Chan
module Frame = Ldb_nub.Frame
module Proto = Ldb_nub.Proto

(* --- growable sample vectors ------------------------------------------------ *)

module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let clear v = v.n <- 0

  let sorted ?(pos = 0) ?len v =
    let len = Option.value len ~default:(v.n - pos) in
    let s = Array.sub v.a pos len in
    Array.sort compare s;
    s
end

(** Nearest-rank percentile of sorted samples; [nan] when there are none. *)
let percentile (s : float array) (p : float) : float =
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(** The [p] percentile of samples kept in arrival order, robust to the
    host slowing down for a second or two: the samples are cut into up
    to twenty consecutive blocks, each of at least 100 samples and large
    enough to keep ten beyond [p], and the median of the blocks'
    percentiles is reported.  Below two blocks' worth of samples it is
    the plain percentile. *)
let blocked_percentile (v : Vec.t) (p : float) : float =
  let blocks = min 20 (v.Vec.n / max 100 (int_of_float (ceil (10. /. (1. -. p))))) in
  if blocks < 2 then percentile (Vec.sorted v) p
  else
    let len = v.Vec.n / blocks in
    let per_block = Array.init blocks (fun b -> percentile (Vec.sorted ~pos:(b * len) ~len v) p) in
    Array.sort compare per_block;
    percentile per_block 0.5

(* --- host speed ----------------------------------------------------------------- *)

(** The reference loop: a fixed walk over a private 2 MiB byte array,
    no allocation, sharing no code with the debugger.  On an idle host it
    takes about [reference_ns]; when other tenants of the host slow this
    process down, it slows down with it. *)
let reference_ns = 1_000_000.

let reference_buf = Bytes.create (2 lsl 20)

let reference_loop () : float =
  let mask = Bytes.length reference_buf - 1 in
  let t0 = Span.now () in
  let s = ref 0 in
  for i = 0 to 320_000 do
    let k = (i * 7919) land mask in
    Bytes.unsafe_set reference_buf k (Char.unsafe_chr (i land 255));
    s := !s + Char.code (Bytes.unsafe_get reference_buf ((k * 31) land mask))
  done;
  ignore (Sys.opaque_identity !s);
  float (Span.now () - t0)

(* --- latency classes ---------------------------------------------------------- *)

(** What a command does to the debugged program, which decides the
    latency class it is reported in. *)
type cls =
  | Inspect  (** read-only at a stop, live or historical *)
  | Resume  (** run until the next event: continue, step, or a reverse motion *)
  | Modify  (** change state: assign, plant or clear, condition, record, close *)
  | Attach  (** launch a process and bind a debugger session to it *)

let cls_index = function Inspect -> 0 | Resume -> 1 | Modify -> 2 | Attach -> 3

(* --- a run ------------------------------------------------------------------------- *)

(** A set-up workload: [step] runs one seeded unit of work and says
    whether the workload has more; [interp] is the interpreter under its
    debugger, whose scan counters the traced run reads. *)
type world = { step : unit -> bool; interp : Ldb_pscript.Interp.t }

(** Tiny sizes, for the test suite's smoke run. *)
let smoke = ref false

exception Mismatch of string

type t = {
  lat : Vec.t array;  (** reference microseconds, by class, in arrival order *)
  mutable commands : int;  (** completed in the current phase *)
  rate : Vec.t;  (** commands per reference second, one-second windows of the phase *)
  recent : float array;  (** the last reference-loop times, ns *)
  mutable calibrations : int;
  mutable speed : float;  (** host slowdown: median of [recent] over [reference_ns] *)
  launch_us : Vec.t;
  connect_us : Vec.t;
  expr_us : Vec.t;
  wait_ticks : Vec.t;
}

let create () =
  {
    lat = Array.init 4 (fun _ -> Vec.create ());
    commands = 0;
    rate = Vec.create ();
    recent = Array.make 5 reference_ns;
    calibrations = 0;
    speed = 1.;
    launch_us = Vec.create ();
    connect_us = Vec.create ();
    expr_us = Vec.create ();
    wait_ticks = Vec.create ();
  }

(** Start a measured phase: latencies and counts so far are forgotten. *)
let reset (h : t) =
  Array.iter Vec.clear h.lat;
  List.iter Vec.clear [ h.rate; h.launch_us; h.connect_us; h.expr_us; h.wait_ticks ];
  h.commands <- 0

(** Time the reference loop and update the host's current slowdown; the
    loop's own time is returned so callers can leave it out of windows. *)
let calibrate (h : t) : int =
  let ns = reference_loop () in
  h.recent.(h.calibrations mod Array.length h.recent) <- ns;
  h.calibrations <- h.calibrations + 1;
  let r = Array.copy h.recent in
  Array.sort compare r;
  h.speed <- percentile r 0.5 /. reference_ns;
  int_of_float ns

(** Account one finished command in its latency class, in reference
    microseconds: its latency divided by the host's current slowdown. *)
let record (h : t) (c : cls) (ns : int) =
  Vec.push h.lat.(cls_index c) (float ns /. 1e3 /. h.speed);
  h.commands <- h.commands + 1;
  Span.count "commands" 1

(** Run one timed command of class [c].  When [tg] is live, its
    transport's retries during the command are counted. *)
let cmd ?tg (h : t) (c : cls) (f : unit -> 'a) : 'a =
  let retries () =
    match tg with
    | Some { Ldb.tg_conn = Ldb.Live tr; _ } -> (Transport.stats tr).Transport.st_retries
    | _ -> 0
  in
  let r0 = retries () in
  let t0 = Span.now () in
  let v = Span.command f in
  record h c (Span.now () - t0);
  Span.count "transport.retries" (retries () - r0);
  v

let check (what : string) (ok : bool) = if not ok then raise (Mismatch what)

let expect_int what ~want got =
  check (Printf.sprintf "%s: got %d, want %d" what got want) (got = want)

let expect_str what ~want got =
  check (Printf.sprintf "%s: got %S, want %S" what got want) (String.equal got want)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* --- layer wrappers ---------------------------------------------------------------- *)

let ldb f = Span.span Span.Ldb f

let timed (v : Vec.t) (l : Span.layer) f =
  let t0 = Span.now () in
  let r = Span.span l f in
  if !Span.on then Vec.push v (float (Span.now () - t0) /. 1e3);
  r

(** A call into the expression server, with its RPCs counted. *)
let exprserver (h : t) f =
  let q0 = Span.counter "transport.requests" in
  let r = timed h.expr_us Span.Exprserver f in
  Span.count "exprserver.calls" 1;
  Span.count "exprserver.rpcs" (Span.counter "transport.requests" - q0);
  r

(** Run [f], a backtrace command, counting the requests it sends for
    [transport.rpcs_per_backtrace]. *)
let counting_backtrace f =
  let q0 = Span.counter "transport.requests" in
  let r = f () in
  Span.count "bt.rpcs" (Span.counter "transport.requests" - q0);
  Span.count "bt.count" 1;
  r

(* --- instrumented debugger↔nub channels -------------------------------------------- *)

(** Count a request frame by kind as it leaves the debugger. *)
let classify_request (s : string) =
  if String.length s >= Frame.header_len then begin
    Span.count "transport.requests" 1;
    match
      Proto.decode_request (String.sub s Frame.header_len (String.length s - Frame.header_len))
    with
    | Ok (Proto.Fetch _) -> Span.count "transport.fetch" 1
    | Ok (Proto.Store _) -> Span.count "transport.store" 1
    | Ok (Proto.Continue | Proto.Step) -> Span.count "transport.run" 1
    | Ok _ | Error _ -> ()
  end

(** Put the benchmark's hooks on a debugger endpoint: a timed pump that
    counts the bytes the nub wrote back (and, given the process's CPU,
    the instructions it retired), and a send hook that classifies
    requests.  Both cost one branch while tracing is off. *)
let instrument ?cpu (ep : Chan.endpoint) =
  let pump = Chan.pump_of ep in
  Chan.set_pump ep (fun () ->
      if not !Span.on then pump ()
      else begin
        let bytes0 = Chan.available ep in
        let i0 = match cpu with Some c -> c.Cpu.icount | None -> 0 in
        let t0 = Span.now () in
        Span.span Span.Nub pump;
        let insns = (match cpu with Some c -> c.Cpu.icount | None -> 0) - i0 in
        Span.count "nub.pumps" 1;
        Span.count "transport.bytes_from_nub" (Chan.available ep - bytes0);
        if insns > 0 then begin
          Span.count "cpu.insns" insns;
          Span.count "cpu.busy_ns" (Span.now () - t0)
        end
      end);
  Chan.set_on_send ep
    (Some
       (fun s ->
         if !Span.counting then classify_request s;
         Chan.deliver ep s))

(** The debugger's end of a fresh link to [p]'s nub, built the way
    {!Host.open_channel} builds it, with {!instrument}'s hooks. *)
let open_channel (p : Host.process) : Chan.endpoint =
  let dbg_end, nub_end = Chan.pair ~labels:("ldb", "nub") () in
  Nub.attach p.Host.hp_nub nub_end;
  Chan.set_pump dbg_end (fun () -> Nub.pump p.Host.hp_nub);
  instrument ~cpu:p.Host.hp_proc.Proc.cpu dbg_end;
  dbg_end

(** Launch a fresh process of a built image. *)
let launch (h : t) img = timed h.launch_us Span.Host (fun () -> Host.launch_image img)

(** Launch and connect over an instrumented channel, sharing [image]. *)
let attach (h : t) (d : Ldb.t) ~(image : Ldb.image) ~name built =
  let p = launch h built in
  let ch = open_channel p in
  let tg = timed h.connect_us Span.Ldb (fun () -> Ldb.connect_with_image d ~name ~image ch) in
  (p, tg)

(** Build [sources] for [arch], read the image into [d], attach a first
    session and force every symbol-table unit, so that no measured
    command pays for table reading. *)
let first_session (h : t) (d : Ldb.t) ~name ~arch sources =
  let built = Host.build_image ~arch sources in
  let image = Ldb.load_image d ~loader_ps:(snd built) in
  let proc, tg = attach h d ~image ~name built in
  Ldb.force_symbols d tg;
  (built, image, proc, tg)

(** Retire [old] and attach to a fresh process of [built]: one timed
    attach. *)
let relaunch (h : t) (d : Ldb.t) ~image ~name built (old : Ldb.target) =
  Ldb.remove_target d old;
  cmd h Attach (fun () -> attach h d ~image ~name built)

(** The world of a workload whose step serves one target at a time, the
    targets in turn, after [warm] warm-up rounds over all of them. *)
let round_robin (d : Ldb.t) ~warm (targets : 'a array) (serve : 'a -> unit) : world =
  let next = ref 0 in
  let step () =
    serve targets.(!next);
    next := (!next + 1) mod Array.length targets;
    true
  in
  for _ = 1 to warm * Array.length targets do
    ignore (step ())
  done;
  { step; interp = d.Ldb.interp }

let stopped = function Ok (Ldb.Stopped _) -> true | _ -> false

(** Breakpoint condition suppressions recorded on a target so far. *)
let suppressed (tg : Ldb.target) =
  Hashtbl.fold
    (fun _ bp n ->
      match bp.Ldb_ldb.Breakpoint.bp_cond with
      | Some c -> n + c.Ldb_ldb.Breakpoint.c_suppressed
      | None -> n)
    tg.Ldb.tg_breaks 0
