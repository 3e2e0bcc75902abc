(** The debug nub (Sec. 4.2): a small servant loaded with every target
    program.  It installs itself as the signal handler, and when the target
    stops it saves the machine state into a {e context} in the target's own
    data memory, notifies the debugger, and services fetch and store
    requests until told to continue, terminate, or break the connection.

    The nub knows nothing about breakpoint {e planting} — that is
    implemented entirely in the debugger with ordinary fetches and
    stores, exactly as in the paper.  Single-stepping is the optional
    protocol extension of Sec. 7.1: a nub may advertise it ([can_step])
    or not, and the debugger works either way.

    The conditional-breakpoint extension ([Set_cond]/[Clear_cond]) lets
    the debugger attach a {!Bpcode} program to a trap address: when the
    target traps there, the nub evaluates the condition against the
    saved context and resumes silently when it is false, so a condition
    in a hot loop costs zero round trips per miss.  The nub {e re-runs
    the static verifier} ({!Bpverify}) on every program it receives —
    it never trusts the debugger's claim of safety, so a hostile or
    buggy peer cannot wedge the target with an unbounded or wild
    program.  Evaluation faults (a refused load on the live target) are
    conservative: the nub stops and reports, never loops blind.
    Silent resumes are charged against the same per-continue fuel
    budget as ordinary execution, so a satisfied-never condition in an
    infinite loop still surfaces as SIGINT fuel exhaustion.

    Machine dependence is confined to:
    - the context layout (a sigcontext works on SIM-MIPS/SIM-SPARC; the
      other two use their own representations — see [Target]);
    - 80-bit float save/restore on SIM-68020 (the "assembly code");
    - the SIM-MIPS word-swap quirk: the kernel saves floating-point
      registers in the context with the least significant word first, so
      the nub must swap words on 8-byte fetches and stores that hit the
      saved-FP area (the paper's footnote 3). *)

open Ldb_machine

(** Recording state for the record/replay subsystem.  A fetch encodes
    only the events recorded since the previous one and appends them to
    the trace fetched so far, so polling [Fetch_trace] after every stop
    encodes (and compresses) each event once.  Capture itself encodes
    nothing: a checkpoint waits raw until the next fetch. *)
type recorder = {
  rc_spacing : int;  (** requested instructions between checkpoints *)
  rc_trace : Buffer.t;  (** header and every event fetched so far *)
  mutable rc_new : Trace.event list;
      (** recorded since the last fetch, newest first *)
  mutable rc_nreq : int;  (** state-changing requests recorded *)
  mutable rc_since : int;  (** instructions retired since last checkpoint *)
  mutable rc_blocked : bool;
      (** a checkpoint came due at a point where the CPU held a pending
          delayed load (SIM-MIPS): dumping would have committed it early
          and changed delay-slot semantics, so it was deferred *)
}

type t = {
  proc : Proc.t;
  mutable conn : Chan.endpoint option;
  mutable resume : bool;  (** a Continue arrived and the target should run *)
  mutable step : bool;    (** a Step arrived: execute exactly one instruction *)
  mutable killed : bool;
  mutable fuel : int;     (** instruction budget per continue, then SIGINT *)
  mutable notified : bool; (** current stop already reported to the debugger *)
  can_step : bool;        (** whether this nub offers the Step extension *)
  (* at-most-once request transport state (see Frame): *)
  mutable last_seq : int;   (** highest request sequence number served *)
  mutable cur_seq : int;    (** sequence number replies are tagged with *)
  mutable replies : (int * string) list;
      (** sealed frames of recent replies, newest first, keyed by request
          sequence number and retransmitted on duplicates.  Bounded: a
          fresh request acknowledges every older entry (the debugger only
          advances after an answer), and {!max_cached_replies} caps the
          list even against a peer that never advances — a long session
          cannot grow the cache without limit. *)
  mutable rx_mark : int;   (** buffered byte count at the last quiet pump *)
  mutable rx_quiet : int;  (** consecutive pumps with bytes buffered but no
                               frame completed — a lying length field *)
  mutable core : string option;
      (** serialized {!Core} dump of the current stop; written when the
          target dies (fatal signal, kill) and served in chunks to
          [Dump] requests, surviving even the process's exit *)
  conds : (int, Bpcode.prog) Hashtbl.t;
      (** verified condition programs keyed by trap address *)
  mutable suppressed : int;
      (** trap visits resumed silently since the last reported hit *)
  mutable cond_hit : bool;
      (** the current stop came from a condition that held (or faulted):
          report it as {!Proto.Cond_hit}, not a plain {!Proto.Event} *)
  mutable recorder : recorder option;
      (** an execution trace being recorded, if a [Record] arrived *)
}

let ctx_base = Ram.Layout.context_base

(** Hard cap on cached retransmittable replies. *)
let max_cached_replies = 8

let create ?(fuel = 50_000_000) ?(can_step = true) (proc : Proc.t) =
  { proc; conn = None; resume = false; step = false; killed = false; fuel; notified = false;
    can_step; last_seq = 0; cur_seq = 0; replies = []; rx_mark = 0; rx_quiet = 0;
    core = None; conds = Hashtbl.create 4; suppressed = 0; cond_hit = false;
    recorder = None }

(** Number of sealed replies currently cached (tests assert the bound). *)
let cached_replies n = List.length n.replies

(** Number of condition programs currently installed (for tests). *)
let conditions n = Hashtbl.length n.conds

let target n = n.proc.Proc.target
let ram n = n.proc.Proc.ram

(* --- context save/restore --------------------------------------------- *)

let save_context n =
  let t = target n and p = n.proc in
  let cpu = p.Proc.cpu in
  Cpu.drain cpu;
  Ram.set_u32 (ram n) (ctx_base + t.Target.ctx_pc_off) (Int32.of_int cpu.Cpu.pc);
  for r = 0 to Target.nregs t - 1 do
    Ram.set_u32 (ram n) (ctx_base + t.Target.ctx_reg_off r) (Cpu.reg cpu r)
  done;
  for f = 0 to Target.nfregs t - 1 do
    let off = ctx_base + t.Target.ctx_freg_off f in
    let v = Cpu.freg cpu f in
    if t.Target.ctx_freg_bytes = 10 then
      (* SIM-68020: store in 80-bit extended format *)
      Ram.blit_in (ram n) ~addr:off (Float80.to_bytes v)
    else if Arch.equal t.Target.arch Mips then begin
      (* SIM-MIPS kernel quirk: least significant word first *)
      let bits = Int64.bits_of_float v in
      Ram.set_u32 (ram n) off (Int64.to_int32 bits);
      Ram.set_u32 (ram n) (off + 4) (Int64.to_int32 (Int64.shift_right_logical bits 32))
    end
    else Ram.set_f64 (ram n) off v
  done

let restore_context n =
  let t = target n and p = n.proc in
  let cpu = p.Proc.cpu in
  Proc.set_pc p (Int32.to_int (Ram.get_u32 (ram n) (ctx_base + t.Target.ctx_pc_off)));
  for r = 0 to Target.nregs t - 1 do
    Cpu.set_reg cpu r (Ram.get_u32 (ram n) (ctx_base + t.Target.ctx_reg_off r))
  done;
  for f = 0 to Target.nfregs t - 1 do
    let off = ctx_base + t.Target.ctx_freg_off f in
    let v =
      if t.Target.ctx_freg_bytes = 10 then
        Float80.of_bytes (Ram.read_string (ram n) ~addr:off ~len:10)
      else if Arch.equal t.Target.arch Mips then
        let lo = Int64.logand (Int64.of_int32 (Ram.get_u32 (ram n) off)) 0xffffffffL in
        let hi = Int64.of_int32 (Ram.get_u32 (ram n) (off + 4)) in
        Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)
      else Ram.get_f64 (ram n) off
    in
    Cpu.set_freg cpu f v
  done

(* --- fetch/store service ---------------------------------------------- *)

(* The byte-access semantics (sizes, canonical little-endian values, the
   SIM-MIPS word-swap quirk) live in {!Core.Service} so dump-backed
   memories answer exactly like a live nub; here we only add the "nub: "
   provenance to errors. *)

let nubbed r = Result.map_error (fun m -> "nub: " ^ m) r

(** Fetch [size] bytes at [addr] using the target's byte order and return
    the value serialized little-endian (the protocol's canonical order). *)
let do_fetch n ~space ~addr ~size : (string, string) result =
  nubbed (Core.Service.fetch (target n) (ram n) ~space ~addr ~size)

let do_store n ~space ~addr (bytes : string) : (unit, string) result =
  nubbed (Core.Service.store (target n) (ram n) ~space ~addr bytes)

(* --- core dumps --------------------------------------------------------- *)

(** Freeze the current stop into a serialized core dump.  Fatal signals
    dump automatically; [force] also dumps recoverable stops (the
    debugger's explicit [core] command, or a kill). *)
let record_core ?(force = false) n =
  match n.proc.Proc.status with
  | Proc.Stopped (s, code) when force || Core.fatal_signal s ->
      n.core <-
        Some (Core.to_string (Core.of_proc n.proc ~signal:(Signal.number s) ~code))
  | _ -> ()

(* --- trace recording ---------------------------------------------------- *)

(* Recording is passive: every helper is a no-op unless a [Record]
   request installed a recorder.  What gets logged is exactly the
   nondeterminism a deterministic target admits — the state-changing
   requests the debugger sent (stores, conditions, continues, steps,
   kill) and the outcome of each execution — plus periodic checkpoints
   so replay never re-executes more than a bounded span. *)

let rec_event n (e : Trace.event) =
  match n.recorder with
  | None -> ()
  | Some rc ->
      rc.rc_new <- e :: rc.rc_new;
      (match e with
      | Trace.Req _ -> rc.rc_nreq <- rc.rc_nreq + 1
      | _ -> ())

(** Log the stop or exit that ended the execution request just served,
    with the number of counted instruction units it retired. *)
let rec_outcome n ~(instrs : int) =
  match n.recorder with
  | None -> ()
  | Some _ -> (
      match n.proc.Proc.status with
      | Proc.Stopped (s, code) ->
          rec_event n
            (Trace.Stop
               { signal = Signal.number s; code; pc = Proc.pc n.proc; instrs })
      | Proc.Exited status -> rec_event n (Trace.Exit { status; instrs })
      | Proc.Running -> ())

(** Freeze the current machine into a checkpoint at replay cursor
    [(ev, delta)].  Callers guarantee the dump is drain-safe: either the
    target is stopped (its context was just saved, which drains), or the
    caller checked there is no pending delayed load. *)
let checkpoint_of n ~(ev : int) ~(delta : int) : Trace.checkpoint =
  let status, signal, code =
    match n.proc.Proc.status with
    | Proc.Running -> (Trace.Ck_running, 0, 0)
    | Proc.Stopped (s, c) ->
        (Trace.Ck_stopped { signal = Signal.number s; code = c }, Signal.number s, c)
    | Proc.Exited st -> (Trace.Ck_exited st, 0, 0)
  in
  { Trace.ck_ev = ev; ck_delta = delta; ck_status = status;
    ck_stored = Core.to_string (Core.of_proc n.proc ~signal ~code);
    ck_packing = Trace.Fresh }

let rec_checkpoint n ~ev ~delta =
  match n.recorder with
  | None -> ()
  | Some rc ->
      rec_event n (Trace.Checkpoint (checkpoint_of n ~ev ~delta));
      rc.rc_since <- 0;
      rc.rc_blocked <- false

(** Charge [used] retired instructions against the checkpoint period. *)
let rec_charge n used =
  match n.recorder with
  | None -> ()
  | Some rc -> rc.rc_since <- rc.rc_since + used

(** Take a checkpoint at a stop if one is due.  The cursor is
    [(next request, 0)]: everything logged so far is fully applied. *)
let rec_stop_checkpoint n =
  match n.recorder with
  | None -> ()
  | Some rc -> if rc.rc_since >= rc.rc_spacing then rec_checkpoint n ~ev:rc.rc_nreq ~delta:0

(** Mid-continue checkpoint attempt: [delta] instructions into the
    execution of the request indexed [rc_nreq - 1] (the continue being
    served).  Deferred while a delayed load is pending — committing it
    early would change what the delay-slot instruction reads — and
    retried one instruction later, where it has necessarily drained or
    been replaced (at most one load can be in flight). *)
let rec_mid_checkpoint n ~(delta : int) =
  match n.recorder with
  | None -> ()
  | Some rc ->
      if rc.rc_since >= rc.rc_spacing then begin
        if not (Cpu.load_pending n.proc.Proc.cpu) then
          rec_checkpoint n ~ev:(rc.rc_nreq - 1) ~delta
        else rc.rc_blocked <- true
      end

(* --- breakpoint conditions ---------------------------------------------- *)

(** The condition evaluator's view of the stopped target: registers and
    pc from the saved context, memory through the same {!Core.Service}
    semantics the wire uses — so every value here is byte-identical to
    what the debugger would compute over fetches of the same state. *)
let cond_env n : Bpcode.env =
  let t = target n in
  {
    Bpcode.rd_reg = (fun r -> Ram.get_u32 (ram n) (ctx_base + t.Target.ctx_reg_off r));
    rd_pc = (fun () -> Ram.get_u32 (ram n) (ctx_base + t.Target.ctx_pc_off));
    load =
      (fun ~space ~addr ~size ~signed ->
        match Core.Service.fetch t (ram n) ~space ~addr ~size with
        | Error m -> Error m
        | Ok bytes ->
            (* canonical little-endian bytes → int32, extended per signedness *)
            let v = ref 0 in
            String.iteri (fun i ch -> v := !v lor (Char.code ch lsl (8 * i))) bytes;
            let v = if signed then Ldb_util.Endian.sext !v (8 * size) else !v in
            Ok (Int32.of_int v));
  }

(** Judge the current stop against the installed conditions.  [None]:
    not a trap with a condition — report as usual.  [Some true]: the
    condition held, or its evaluation faulted (a refused load on the
    live target) — stop conservatively and report.  [Some false]: a
    miss, resume silently. *)
let cond_verdict n : bool option =
  match n.proc.Proc.status with
  | Proc.Stopped (SIGTRAP, _) -> (
      match Hashtbl.find_opt n.conds (Proc.pc n.proc) with
      | None -> None
      | Some prog -> (
          match Bpcode.eval (cond_env n) prog with
          | Ok hit -> Some hit
          | Error _ -> Some true))
  | _ -> None

(* --- stop reporting ---------------------------------------------------- *)

let stop_state n : Proto.stop_state =
  match n.proc.Proc.status with
  | Proc.Running -> Proto.St_running
  | Proc.Stopped (s, code) ->
      Proto.St_stopped { signal = Signal.number s; code; ctx_addr = ctx_base }
  | Proc.Exited st -> Proto.St_exited st

(** Send a reply framed with the sequence number of the request being
    served, and remember the sealed frame so a duplicate of that request
    can be answered by retransmission instead of re-execution.  A dead
    link is not an error here: the nub preserves the target's state and
    waits for a reattach. *)
let send_reply n (ep : Chan.endpoint) (r : Proto.reply) =
  let sealed = Frame.seal ~seq:n.cur_seq (Proto.encode_reply r) in
  let keep = List.filter (fun (s, _) -> s <> n.cur_seq) n.replies in
  n.replies <-
    (n.cur_seq, sealed)
    :: (if List.length keep >= max_cached_replies then
          List.filteri (fun i _ -> i < max_cached_replies - 1) keep
        else keep);
  try Chan.send ep sealed with Chan.Disconnected -> ()

let notify n =
  match (n.conn, n.proc.Proc.status) with
  | Some ep, Proc.Stopped (s, code) when Chan.is_connected ep && not n.notified ->
      n.notified <- true;
      if n.cond_hit then begin
        n.cond_hit <- false;
        let suppressed = n.suppressed in
        n.suppressed <- 0;
        send_reply n ep
          (Proto.Cond_hit
             { signal = Signal.number s; code; ctx_addr = ctx_base; suppressed })
      end
      else
        send_reply n ep (Proto.Event { signal = Signal.number s; code; ctx_addr = ctx_base })
  | Some ep, Proc.Exited st when Chan.is_connected ep && not n.notified ->
      n.notified <- true;
      send_reply n ep (Proto.Exit_event st)
  | _ -> ()

(* --- the state-changing requests ------------------------------------------ *)

(* What each request the recorder logs does to the machine, defined once.
   The wire ([serve_one] and the deferred run in [pump]) wraps these in
   trace logging, replies and notification; replay ({!Ldb_ldb.Replay})
   applies a recorded request with {!apply} to a nub rebuilt from a
   checkpoint, so replayed execution is the live request path with a cap
   on it, not a copy of it. *)

(** Settle a stepped or capped CPU into a stop, the one a [Step] reports:
    a target still running becomes a SIGTRAP stop, and the stop's context
    is saved. *)
let settle n =
  (match n.proc.Proc.status with
  | Proc.Running ->
      n.proc.Proc.status <- Proc.Stopped (SIGTRAP, 1);
      save_context n
  | Proc.Stopped _ -> save_context n
  | Proc.Exited _ -> ());
  record_core n

(** An applied store outdates the dump of a recoverable stop; a fatal
    stop and an exit keep the dump their demise left. *)
let store n ~space ~addr bytes : (unit, string) result =
  let r = do_store n ~space ~addr bytes in
  (match (r, n.proc.Proc.status) with
  | Ok (), Proc.Stopped (s, _) when not (Core.fatal_signal s) -> n.core <- None
  | _ -> ());
  r

(** Never trust the peer: decode totally, then re-verify.  A program the
    verifier rejects is refused before it can ever run. *)
let set_cond n ~addr prog : (unit, string) result =
  match Bpcode.decode prog with
  | Error m -> Error ("nub: bad condition: " ^ m)
  | Ok p -> (
      match Bpverify.verify (target n) p with
      | [] -> Ok (Hashtbl.replace n.conds addr p)
      | f :: _ -> Error ("nub: unverified condition: " ^ Bpverify.finding_to_string f))

(** Preserve the dying stop as a core before the state is gone. *)
let kill n =
  record_core ~force:true n;
  n.killed <- true;
  n.proc.Proc.status <- Proc.Exited 137

(** How Continue and Step leave a stop: its dump is outdated, and the
    target resumes from its saved context, with whatever the debugger
    stored there. *)
let leave_stop n ~(step : bool) : (unit, string) result =
  if step && not n.can_step then Error "nub: single-step not supported"
  else begin
    n.core <- None;
    restore_context n;
    Proc.set_running n.proc;
    Ok ()
  end

(** Continue's execution, once the target has left its stop: one
    continue's worth of target time.  Runs until the target stops,
    exits, exhausts the fuel left to this continue (then a SIGINT stop,
    as an interrupt would; [consumed] of it is already spent when
    resuming from a mid-run checkpoint), or — replay positioning — has
    retired [cap] counted instruction units, in which case the target
    stays [Running] until {!settle}.  Returns the units retired.

    Execution proceeds in chunks so the recorder can take a checkpoint
    every [rc_spacing] instructions without perturbing semantics: a
    chunk ends at whichever of fuel, cap, or the next checkpoint comes
    first.  One cumulative fuel budget covers the whole continue:
    silent condition-driven resumes burn from the same tank, so a
    never-true condition in an infinite loop still ends in a SIGINT,
    not a hang. *)
let run ?(consumed = 0) ?cap n : int =
  let fuel = ref (n.fuel - consumed) in
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let cap_room = match cap with None -> max_int | Some c -> c - !total in
    if cap_room <= 0 then continue := false
    else begin
      let ck_room =
        match n.recorder with
        | None -> max_int
        | Some rc ->
            if rc.rc_blocked then 1 else max 1 (rc.rc_spacing - rc.rc_since)
      in
      let chunk = min (min (max 0 !fuel) cap_room) ck_room in
      let status, used = Proc.run_counted ~fuel:chunk n.proc in
      fuel := !fuel - used;
      total := !total + used;
      rec_charge n used;
      match status with
      | Proc.Running ->
          if (match cap with Some c -> !total >= c | None -> false) then
            (* positioned: leave the target running mid-continue *)
            continue := false
          else if !fuel <= 0 then begin
            (* fuel exhausted: behave like an interrupt *)
            n.proc.Proc.status <- Proc.Stopped (SIGINT, 0);
            save_context n;
            continue := false
          end
          else rec_mid_checkpoint n ~delta:!total
      | Proc.Exited _ -> continue := false
      | Proc.Stopped _ -> (
          save_context n;
          match cond_verdict n with
          | Some false ->
              (* a miss: skip the trapped no-op and resume — no RPC, no
                 report *)
              n.suppressed <- n.suppressed + 1;
              Proc.set_pc n.proc (Proc.pc n.proc + (target n).Target.nop_advance);
              Proc.set_running n.proc
          | Some true ->
              n.cond_hit <- true;
              continue := false
          | None -> continue := false)
    end
  done;
  record_core n;
  !total

(** Step's execution: exactly one instruction, settled into a stop. *)
let step n : int =
  Proc.step n.proc;
  settle n;
  1

(** Apply one state-changing request and return the units it retired;
    a refused request changed nothing.  Anything the recorder does not
    log is refused, as evidence of a corrupt trace. *)
let apply ?cap n (req : Proto.request) : (int, string) result =
  match req with
  | Proto.Store { space; addr; bytes } ->
      Result.map (fun () -> 0) (store n ~space ~addr bytes)
  | Proto.Set_cond { addr; prog } -> Result.map (fun () -> 0) (set_cond n ~addr prog)
  | Proto.Clear_cond { addr } ->
      Hashtbl.remove n.conds addr;
      Ok 0
  | Proto.Kill ->
      kill n;
      Ok 0
  | Proto.Continue -> Result.map (fun () -> run ?cap n) (leave_stop n ~step:false)
  | Proto.Step -> Result.map (fun () -> step n) (leave_stop n ~step:true)
  | Proto.Hello | Proto.Fetch _ | Proto.Detach | Proto.Dump _ | Proto.Record _
  | Proto.Fetch_trace _ ->
      Error "nub: request is not state-changing"

(* --- main service pump ------------------------------------------------- *)

(** Log the finished execution's outcome, checkpoint if one is due, and
    report the new stop. *)
let report n ~instrs =
  rec_outcome n ~instrs;
  rec_stop_checkpoint n;
  n.notified <- false;
  notify n

let run_target n = report n ~instrs:(run n)

(** Execute exactly one instruction and report the stop, as the [Step]
    extension requires. *)
let step_target n =
  let instrs = step n in
  rec_charge n instrs;
  report n ~instrs

let serve_one n (ep : Chan.endpoint) (req : Proto.request) =
  match req with
  | Proto.Hello ->
      send_reply n ep
        (Proto.Hello_reply
           { arch = Arch.name (Proc.arch n.proc); state = stop_state n;
             can_step = n.can_step })
  | Proto.Fetch { space; addr; size } -> (
      match do_fetch n ~space ~addr ~size with
      | Ok bytes -> send_reply n ep (Proto.Fetched bytes)
      | Error m -> send_reply n ep (Proto.Nub_error m))
  | Proto.Store _ | Proto.Set_cond _ | Proto.Clear_cond _ -> (
      match apply n req with
      | Ok _ ->
          (* only applied requests enter the trace: a refused one changed
             nothing and replay must not re-attempt it *)
          rec_event n (Trace.Req req);
          send_reply n ep Proto.Stored
      | Error m -> send_reply n ep (Proto.Nub_error m))
  | Proto.Continue | Proto.Step -> (
      (* the run itself is deferred to [pump] *)
      let stepping = req = Proto.Step in
      match leave_stop n ~step:stepping with
      | Ok () ->
          rec_event n (Trace.Req req);
          if stepping then n.step <- true else n.resume <- true
      | Error m -> send_reply n ep (Proto.Nub_error m))
  | Proto.Kill ->
      kill n;
      rec_event n (Trace.Req req)
  | Proto.Detach -> (
      match n.conn with
      | Some e ->
          Chan.disconnect e;
          n.conn <- None
      | None -> ())
  | Proto.Dump { offset } -> (
      (* a live stopped target dumps on demand; a dead one serves the
         dump its demise left behind *)
      (match n.core with None -> record_core ~force:true n | Some _ -> ());
      match n.core with
      | None ->
          let msg =
            match n.proc.Proc.status with
            | Proc.Running -> "nub: target is running"
            | Proc.Exited _ -> "nub: target exited leaving no core"
            | Proc.Stopped _ -> "nub: no core available"
          in
          send_reply n ep (Proto.Nub_error msg)
      | Some dump ->
          let total = String.length dump in
          if offset < 0 || offset > total then
            send_reply n ep (Proto.Nub_error "nub: dump offset out of range")
          else
            let len = min Proto.max_core_chunk (total - offset) in
            send_reply n ep
              (Proto.Core_chunk { total; offset; chunk = String.sub dump offset len }))
  | Proto.Record { spacing } -> (
      match n.proc.Proc.status with
      | Proc.Stopped _ ->
          let rc_trace = Buffer.create 4096 in
          Trace.add_header rc_trace
            { Trace.tr_arch = (target n).Target.arch; tr_fuel = n.fuel;
              tr_can_step = n.can_step; tr_spacing = spacing; tr_events = [] };
          n.recorder <-
            Some
              { rc_spacing = spacing; rc_trace; rc_new = []; rc_nreq = 0; rc_since = 0;
                rc_blocked = false };
          (* history starts here: the initial checkpoint anchors replay
             at cursor (0, 0), before any logged request *)
          rec_checkpoint n ~ev:0 ~delta:0;
          send_reply n ep Proto.Stored
      | Proc.Running -> send_reply n ep (Proto.Nub_error "nub: target is running")
      | Proc.Exited _ ->
          send_reply n ep (Proto.Nub_error "nub: cannot record an exited target"))
  | Proto.Fetch_trace { offset } -> (
      match n.recorder with
      | None -> send_reply n ep (Proto.Nub_error "nub: not recording")
      | Some rc ->
          List.iter (Trace.add_event rc.rc_trace) (List.rev rc.rc_new);
          rc.rc_new <- [];
          let total = Buffer.length rc.rc_trace in
          if offset < 0 || offset > total then
            send_reply n ep (Proto.Nub_error "nub: trace offset out of range")
          else
            let len = min Proto.max_trace_chunk (total - offset) in
            send_reply n ep
              (Proto.Trace_chunk { total; offset; chunk = Buffer.sub rc.rc_trace offset len }))

(** Serve one incoming frame, enforcing at-most-once execution: a frame
    numbered at or below the last served request is a duplicate of a
    request whose effect already happened — its cached reply is
    retransmitted when still held, and it is silently dropped otherwise
    (the debugger has long since moved on); only a fresh number executes.
    A fresh number also acknowledges every older cached reply — the
    debugger issues sequence numbers in order and never retries a request
    after advancing past it — so acknowledged entries are evicted here.
    This is what makes the debugger's retry of a lost [Continue] safe —
    re-running it would resume the target a second time. *)
let serve_frame n (ep : Chan.endpoint) (f : Frame.frame) =
  let seq = f.Frame.fr_seq in
  if seq <= n.last_seq && n.last_seq > 0 then (
    match List.assoc_opt seq n.replies with
    | Some sealed -> ( try Chan.send ep sealed with Chan.Disconnected -> ())
    | None -> ())
  else begin
    n.last_seq <- seq;
    n.cur_seq <- seq;
    n.replies <- List.filter (fun (s, _) -> s >= seq) n.replies;
    match Proto.decode_request f.Frame.fr_payload with
    | Ok req -> serve_one n ep req
    | Error m -> send_reply n ep (Proto.Nub_error ("nub: bad request: " ^ m))
  end

(** Consecutive quiet pumps tolerated while bytes are buffered but no
    frame completes, before assuming a lying length field and forcing a
    resync. *)
let rx_stall_limit = 8

(** Process every pending request, running the target when a continue has
    been received.  This is the closure installed as the debugger
    endpoint's pump.  A link failure mid-service is absorbed: the nub
    drops the dead connection and keeps the target's state for the next
    attach. *)
let rec pump n =
  match n.conn with
  | None -> ()
  | Some ep ->
      (try
         let draining = ref true in
         while !draining do
           match Frame.try_recv ep with
           | `Frame f ->
               n.rx_quiet <- 0;
               serve_frame n ep f
           | `Corrupt _ -> ()  (* dropped; the debugger retries *)
           | `Incomplete ->
               (* a header whose corrupted length field promises bytes
                  that never arrive would block the stream forever: after
                  enough quiet pumps, discard its magic and rescan *)
               let avail = Chan.available ep in
               if avail > 0 && avail = n.rx_mark then begin
                 n.rx_quiet <- n.rx_quiet + 1;
                 if n.rx_quiet > rx_stall_limit then begin
                   Chan.skip ep Ldb_util.Bytecodec.magic_len;
                   n.rx_quiet <- 0
                 end
                 else draining := false
               end
               else begin
                 n.rx_mark <- avail;
                 n.rx_quiet <- 0;
                 draining := false
               end
         done
       with Chan.Disconnected -> n.conn <- None);
      if n.step then begin
        n.step <- false;
        (* one instruction, then stop and report *)
        step_target n;
        pump n
      end
      else if n.resume then begin
        n.resume <- false;
        run_target n;
        (* servicing the continue may have queued more requests *)
        pump n
      end

(** Attach a (new) debugger connection.  Any previous connection is
    forgotten; target state is preserved, so a fresh debugger instance can
    pick up where a crashed one left off.  The request-sequence state
    resets with the connection: a fresh debugger numbers from 1 again. *)
let attach n (ep : Chan.endpoint) =
  n.conn <- Some ep;
  n.last_seq <- 0;
  n.cur_seq <- 0;
  n.replies <- [];
  n.rx_mark <- 0;
  n.rx_quiet <- 0;
  (* conditions belong to the debugger that shipped them; a fresh
     debugger re-ships the ones it wants *)
  Hashtbl.reset n.conds;
  n.suppressed <- 0;
  n.cond_hit <- false;
  (* resetting the conditions above desynchronizes any trace in
     progress (the reset is not a logged request), so a recording does
     not survive a re-attach: time travel is per-session *)
  n.recorder <- None;
  n.notified <- true (* new debugger learns state from its Hello *)

(** Start the target under the nub.  [paused] mimics the one-line "pause"
    procedure: the target stops with SIGTRAP before calling main, waiting
    for a debugger.  Unpaused targets run immediately (and the nub catches
    any fault, preserving state until a debugger connects). *)
let start ?(paused = true) n =
  Proc.set_pc n.proc n.proc.Proc.entry;
  if paused then begin
    n.proc.Proc.status <- Proc.Stopped (SIGTRAP, 0);
    save_context n;
    n.notified <- true (* nobody to notify yet; Hello will report it *)
  end
  else run_target n
