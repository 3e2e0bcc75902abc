(** Replay-backed debugging sessions: time travel over a recorded trace.

    A replay session owns a {!Ldb_nub.Trace.t} and materializes any
    historical instant of the recorded execution as an ordinary
    {!Ldb.target}: restore the nearest checkpoint at or before the
    requested cursor ({!Ldb_machine.Core.to_proc}), re-apply the logged
    requests to a fresh nub through the very definitions the live wire
    serves them with ({!Ldb_nub.Nub.apply}), and connect the debugger to
    it over a private channel with {!Ldb.connect_with_image}.  From
    there the whole machine-independent DAG — frame walking, printing,
    validity-aware display, disassembly — works unchanged, because the
    historical target answers the wire protocol exactly as the live one
    did at that instant.

    Positions are cursors [(ev, delta)]: [ev] indexes the trace's
    state-changing requests, [delta] counts instructions into request
    [ev]'s execution.  Three user-facing motions:

    - {!rstep}: one instruction back.
    - {!rcontinue}: back to the previous recorded stop, shown exactly
      as it was first reported — before any debugger stores made while
      sitting at it.
    - {!run_back_to_write}: the rr-style "when was this last written?"
      query — re-execute from checkpoints, sampling the watched bytes
      after every instruction and every logged store, and land just
      after the most recent change at or before the current position.

    Replayed execution is verified against the recording as it goes:
    every replayed continue/step must end in the recorded stop (same
    signal, code, pc and instruction count) or the session reports a
    typed [`Divergence] rather than show fabricated history. *)

open Ldb_machine
module Nub = Ldb_nub.Nub
module Chan = Ldb_nub.Chan
module Proto = Ldb_nub.Proto
module Trace = Ldb_nub.Trace

type error =
  [ `Bad_trace of string  (** the trace (or a checkpoint in it) is unusable *)
  | `Divergence of string  (** replay disagreed with the recording *)
  | `End_of_history  (** no earlier instant exists *)
  | `No_write  (** the watched bytes were never written in recorded history *)
  | `Unsupported of string ]

let error_to_string : error -> string = function
  | `Bad_trace m -> "bad trace: " ^ m
  | `Divergence m -> "replay divergence: " ^ m
  | `End_of_history -> "already at the beginning of recorded history"
  | `No_write -> "no write to those bytes in recorded history"
  | `Unsupported m -> m

type t = {
  rp_d : Ldb.t;
  rp_image : Ldb.image;
  rp_name : string;
  rp_trace : Trace.t;
  rp_reqs : Proto.request array;  (** state-changing requests, in order *)
  rp_dur : int array;  (** instruction units each request retired (0: none) *)
  rp_out : Trace.event option array;  (** recorded outcome per request *)
  rp_cks : Trace.checkpoint array;  (** cursor-ascending *)
  rp_cores : Core.t option array;
      (** [rp_cks]' dumps, decompressed, decoded and CRC-checked on first
          restore *)
  mutable rp_pos : int * int;  (** current cursor *)
  mutable rp_tg : Ldb.target option;  (** target materialized at [rp_pos] *)
  mutable rp_cost : int;  (** instructions re-executed by the last seek *)
}

let is_exec = function Proto.Continue | Proto.Step -> true | _ -> false

(** Digest the flat event stream into parallel request/outcome arrays,
    dropping a trailing executing request whose outcome the trace never
    got to record (a salvaged truncation mid-run): history ends at the
    last fully-known instant. *)
let analyze (tr : Trace.t) =
  let reqs = ref [] and outs = ref [] and cks = ref [] in
  List.iter
    (fun e ->
      match e with
      | Trace.Req r ->
          reqs := r :: !reqs;
          outs := None :: !outs
      | Trace.Stop _ | Trace.Exit _ -> (
          match (!outs, !reqs) with
          | None :: rest, r :: _ when is_exec r -> outs := Some e :: rest
          | _ -> ())
      | Trace.Checkpoint ck -> cks := ck :: !cks)
    tr.Trace.tr_events;
  let reqs = Array.of_list (List.rev !reqs) in
  let outs = Array.of_list (List.rev !outs) in
  let n = Array.length reqs in
  let keep =
    if n > 0 && is_exec reqs.(n - 1) && outs.(n - 1) = None then n - 1 else n
  in
  let reqs = Array.sub reqs 0 keep and outs = Array.sub outs 0 keep in
  let dur =
    Array.map
      (function
        | Some (Trace.Stop { instrs; _ }) | Some (Trace.Exit { instrs; _ }) -> instrs
        | _ -> 0)
      outs
  in
  let cks =
    List.filter
      (fun ck ->
        ck.Trace.ck_ev < keep || (ck.Trace.ck_ev = keep && ck.Trace.ck_delta = 0))
      (List.rev !cks)
  in
  (reqs, outs, dur, Array.of_list cks)

(** Open a replay session over serialized trace [bytes].  The [image]
    must be the same program the recording debugged — symbol tables and
    loader tables come from it, exactly as for a live connection.  The
    session starts positioned at the end of history (the last recorded
    instant); use the motions to travel.  Salvage warnings describe
    damage that shortened a damaged trace's usable prefix. *)
let of_string (d : Ldb.t) ~(name : string) ~(image : Ldb.image) (bytes : string) :
    (t * Trace.salvage list, error) result =
  match Trace.of_string bytes with
  | Error m -> Error (`Bad_trace m)
  | Ok (tr, warns) ->
      if not (Arch.equal image.Ldb.im_symtab.Symtab.arch tr.Trace.tr_arch) then
        Error
          (`Bad_trace
             (Printf.sprintf "trace was recorded on %s but the image is for %s"
                (Arch.name tr.Trace.tr_arch)
                (Arch.name image.Ldb.im_symtab.Symtab.arch)))
      else
        let reqs, outs, dur, cks = analyze tr in
        if Array.length cks = 0 then Error (`Bad_trace "no usable checkpoint")
        else if cks.(0).Trace.ck_ev <> 0 || cks.(0).Trace.ck_delta <> 0 then
          Error (`Bad_trace "history does not begin with a checkpoint")
        else
          Ok
            ( { rp_d = d; rp_image = image; rp_name = name; rp_trace = tr;
                rp_reqs = reqs; rp_dur = dur; rp_out = outs; rp_cks = cks;
                rp_cores = Array.make (Array.length cks) None;
                rp_pos = (Array.length reqs, 0); rp_tg = None; rp_cost = 0 },
              warns )

let position_cursor (t : t) = t.rp_pos
let target (t : t) = t.rp_tg
let requests (t : t) = Array.length t.rp_reqs
let checkpoint_count (t : t) = Array.length t.rp_cks

(** Instructions the last seek re-executed to materialize its position —
    the work a checkpoint saved us from repeating is not in it, so this
    is the number the spacing trade-off bounds. *)
let last_seek_cost (t : t) = t.rp_cost

(** Total instruction units the recorded execution retired. *)
let recorded_instructions (t : t) = Array.fold_left ( + ) 0 t.rp_dur

(** Human description of the current cursor, for the CLI prompt. *)
let describe (t : t) : string =
  let ev, delta = t.rp_pos in
  if ev >= Array.length t.rp_reqs && delta = 0 then
    Printf.sprintf "at end of history (event %d)" ev
  else if delta = 0 then Printf.sprintf "at event %d of %d" ev (Array.length t.rp_reqs)
  else
    Printf.sprintf "inside event %d of %d, %d instruction(s) in" ev
      (Array.length t.rp_reqs) delta

(* --- positioning -------------------------------------------------------- *)

exception Fail of error

let cursor_leq (a, b) (c, d) = a < c || (a = c && b <= d)

(** The index of the checkpoint with the greatest cursor at or before
    [(ev, delta)]; always defined because every trace begins with one at
    (0, 0). *)
let best_checkpoint (t : t) ~ev ~delta : int =
  let at i = (t.rp_cks.(i).Trace.ck_ev, t.rp_cks.(i).Trace.ck_delta) in
  let best = ref 0 in
  Array.iteri
    (fun i _ -> if cursor_leq (at i) (ev, delta) && cursor_leq (at !best) (at i) then best := i)
    t.rp_cks;
  !best

let status_str = function
  | Proc.Running -> "running"
  | Proc.Stopped (s, code) -> Printf.sprintf "stop sig %d code %d" (Signal.number s) code
  | Proc.Exited n -> Printf.sprintf "exit %d" n

(** Checkpoint [i]'s dump, decompressed and decoded once, when a seek
    first restores it.  A checkpoint whose core comes back damaged is
    refused: salvaged memory would replay into fabricated history, and an
    earlier checkpoint cannot substitute (replaying across the damage
    still reads it). *)
let checkpoint_core (t : t) (i : int) : Core.t =
  match t.rp_cores.(i) with
  | Some co -> co
  | None -> (
      match Result.bind (Trace.checkpoint_core t.rp_cks.(i)) Core.of_string with
      | Error m -> raise (Fail (`Bad_trace ("checkpoint core unreadable: " ^ m)))
      | Ok (_, _ :: _) -> raise (Fail (`Bad_trace "checkpoint core damaged"))
      | Ok (co, []) ->
          if not (Arch.equal co.Core.co_arch t.rp_trace.Trace.tr_arch) then
            raise (Fail (`Bad_trace "checkpoint architecture differs from trace"));
          t.rp_cores.(i) <- Some co;
          co)

(** Rebuild a nub around the machine checkpoint [i] froze. *)
let restore (t : t) (i : int) : Nub.t =
  let p = Core.to_proc (checkpoint_core t i) in
  p.Proc.status <-
    (match t.rp_cks.(i).Trace.ck_status with
    | Trace.Ck_running -> Proc.Running
    | Trace.Ck_stopped { signal; code } ->
        Proc.Stopped (Option.value ~default:Signal.SIGINT (Signal.of_number signal), code)
    | Trace.Ck_exited st -> Proc.Exited st);
  let n = Nub.create ~fuel:t.rp_trace.Trace.tr_fuel ~can_step:t.rp_trace.Trace.tr_can_step p in
  (* a fatal stop keeps the dump its fault left, as the live nub did
     when the checkpoint was taken *)
  Nub.record_core n;
  n

(** Hold a replayed execution to account: the stop it reached must be
    the stop the recording reached, field for field. *)
let check_outcome (t : t) (n : Nub.t) ~(ev : int) ~(used : int) : unit =
  let diverged fmt =
    Printf.ksprintf (fun m -> raise (Fail (`Divergence m))) fmt
  in
  match t.rp_out.(ev) with
  | Some (Trace.Stop { signal; code; pc; instrs }) -> (
      match n.Nub.proc.Proc.status with
      | Proc.Stopped (s, c)
        when Signal.number s = signal && c = code
             && Proc.pc n.Nub.proc = pc && used = instrs ->
          ()
      | st ->
          diverged
            "request %d: recorded stop sig %d code %d pc %#x after %d, replay \
             reached %s (pc %#x) after %d"
            ev signal code pc instrs (status_str st) (Proc.pc n.Nub.proc) used)
  | Some (Trace.Exit { status; instrs }) -> (
      match n.Nub.proc.Proc.status with
      | Proc.Exited st when st = status && used = instrs -> ()
      | st ->
          diverged "request %d: recorded exit %d after %d, replay reached %s after %d"
            ev status instrs (status_str st) used)
  | _ -> ()

let apply (t : t) (n : Nub.t) (i : int) ~cap : int =
  match Nub.apply ?cap n t.rp_reqs.(i) with
  | Ok used ->
      t.rp_cost <- t.rp_cost + used;
      used
  | Error m -> raise (Fail (`Divergence (Printf.sprintf "request %d refused: %s" i m)))

let resume (t : t) (n : Nub.t) ~consumed ~cap : int =
  let used = Nub.run ~consumed ?cap n in
  t.rp_cost <- t.rp_cost + used;
  used

(** Materialize the machine at cursor [(ev, delta)] in a fresh nub,
    without forcing a mid-run position into a stop — callers that want
    an inspectable target settle a running one with {!Nub.settle}. *)
let position_raw (t : t) ~(ev : int) ~(delta : int) : Nub.t =
  let nreq = Array.length t.rp_reqs in
  if ev < 0 || ev > nreq || delta < 0 || (ev = nreq && delta > 0) then
    raise (Fail (`Bad_trace (Printf.sprintf "cursor (%d,%d) out of range" ev delta)));
  if delta > 0 && not (is_exec t.rp_reqs.(ev) && delta < t.rp_dur.(ev)) then
    raise (Fail (`Bad_trace (Printf.sprintf "cursor (%d,%d) not inside a run" ev delta)));
  let i = best_checkpoint t ~ev ~delta in
  let ck = t.rp_cks.(i) in
  t.rp_cost <- 0;
  let n = restore t i in
  let start =
    if ck.Trace.ck_delta = 0 then ck.Trace.ck_ev
    else if ck.Trace.ck_ev = ev then begin
      (* the checkpoint sits inside the very run the cursor targets *)
      if delta > ck.Trace.ck_delta then begin
        let want = delta - ck.Trace.ck_delta in
        let used = resume t n ~consumed:ck.Trace.ck_delta ~cap:(Some want) in
        if used < want then
          raise
            (Fail
               (`Divergence
                  (Printf.sprintf "request %d ended after %d instructions, cursor %d"
                     ev
                     (ck.Trace.ck_delta + used)
                     delta)))
      end;
      ev
    end
    else begin
      (* finish the checkpointed run, then continue with full requests *)
      let used = resume t n ~consumed:ck.Trace.ck_delta ~cap:None in
      check_outcome t n ~ev:ck.Trace.ck_ev ~used:(ck.Trace.ck_delta + used);
      ck.Trace.ck_ev + 1
    end
  in
  for i = start to ev - 1 do
    let used = apply t n i ~cap:None in
    check_outcome t n ~ev:i ~used
  done;
  if delta > 0 && not (ck.Trace.ck_ev = ev && ck.Trace.ck_delta > 0) then begin
    let used = apply t n ev ~cap:(Some delta) in
    if used < delta then
      raise
        (Fail
           (`Divergence
              (Printf.sprintf "request %d ended after %d instructions, cursor %d" ev
                 used delta)))
  end;
  n

(** Connect the debugger to a positioned nub over a private channel; the
    previous historical target, if any, is retired. *)
let attach_session (t : t) (n : Nub.t) : Ldb.target =
  let dbg_end, nub_end = Chan.pair ~labels:("ldb", "replay-nub") () in
  Nub.attach n nub_end;
  Chan.set_pump dbg_end (fun () -> Nub.pump n);
  (match t.rp_tg with Some old -> Ldb.remove_target t.rp_d old | None -> ());
  let tg = Ldb.connect_with_image t.rp_d ~name:t.rp_name ~image:t.rp_image dbg_end in
  t.rp_tg <- Some tg;
  tg

(** Move the session to cursor [(ev, delta)] and materialize a target
    there.  A cursor equal to a run's full duration normalizes to the
    position after that run. *)
let seek (t : t) ~(ev : int) ~(delta : int) : (Ldb.target, error) result =
  let ev, delta =
    if ev < Array.length t.rp_reqs && delta > 0 && delta >= t.rp_dur.(ev) then
      (ev + 1, 0)
    else (ev, delta)
  in
  match
    let n = position_raw t ~ev ~delta in
    (* a stop is already settled, and saving its context again would
       undo the debugger's stores there *)
    if n.Nub.proc.Proc.status = Proc.Running then Nub.settle n;
    n
  with
  | n ->
      let tg = attach_session t n in
      t.rp_pos <- (ev, delta);
      Ok tg
  | exception Fail e -> Error e

(* --- motions ------------------------------------------------------------ *)

(** Index of the latest request at or before [j0] that executed
    instructions. *)
let prev_exec (t : t) (j0 : int) : int option =
  let rec go j =
    if j < 0 then None
    else if is_exec t.rp_reqs.(j) && t.rp_dur.(j) > 0 then Some j
    else go (j - 1)
  in
  go j0

(** One instruction back. *)
let rstep (t : t) : (Ldb.target, error) result =
  let ev, delta = t.rp_pos in
  if delta > 0 then seek t ~ev ~delta:(delta - 1)
  else
    match prev_exec t (ev - 1) with
    | None -> Error `End_of_history
    | Some j -> seek t ~ev:j ~delta:(t.rp_dur.(j) - 1)

(** Back to the previous recorded stop, as first reported: the position
    immediately after the run that produced it, before any stores the
    debugger made while sitting there. *)
let rcontinue (t : t) : (Ldb.target, error) result =
  let ev, delta = t.rp_pos in
  if delta > 0 then
    (* mid-run: the previous stop is the one this run started from *)
    match prev_exec t (ev - 1) with
    | None -> seek t ~ev:0 ~delta:0
    | Some j -> seek t ~ev:(j + 1) ~delta:0
  else
    match prev_exec t (ev - 1) with
    | None -> Error `End_of_history
    | Some j -> (
        match prev_exec t (j - 1) with
        | None -> seek t ~ev:0 ~delta:0
        | Some k -> seek t ~ev:(k + 1) ~delta:0)

(* --- run back to the last write ----------------------------------------- *)

let sample (n : Nub.t) ~addr ~size : string =
  let ram = n.Nub.proc.Proc.ram in
  String.init size (fun i -> Char.chr (Ram.get_u8 ram (addr + i)))

(** Walk the recording forward from a checkpoint one observable mutation
    at a time — one instruction of a run, or one non-executing request —
    reporting the cursor after each move so a caller can sample state.
    Cursors are kept normalized: a completed run's cursor advances past
    it. *)
let walk_window (t : t) (n : Nub.t) ~(from : int * int) ~(upto : int * int)
    (visit : int * int -> unit) : unit =
  let nreq = Array.length t.rp_reqs in
  let ev = ref (fst from) and delta = ref (snd from) in
  while not (cursor_leq upto (!ev, !delta)) && !ev < nreq do
    (if !delta > 0 then begin
       let used = resume t n ~consumed:!delta ~cap:(Some 1) in
       if used < 1 then
         raise
           (Fail
              (`Divergence
                 (Printf.sprintf "request %d ended after %d instructions, %d recorded"
                    !ev !delta t.rp_dur.(!ev))));
       delta := !delta + used
     end
     else
       let req = t.rp_reqs.(!ev) in
       if is_exec req && t.rp_dur.(!ev) > 0 then begin
         let used = apply t n !ev ~cap:(Some 1) in
         if used < 1 then
           raise
             (Fail
                (`Divergence
                   (Printf.sprintf "request %d retired nothing, %d recorded" !ev
                      t.rp_dur.(!ev))))
         else delta := used
       end
       else begin
         ignore (apply t n !ev ~cap:None);
         incr ev
       end);
    if !delta >= t.rp_dur.(min !ev (nreq - 1)) && !delta > 0 then begin
      (* the run completed: verify its recorded stop and step past it *)
      check_outcome t n ~ev:!ev ~used:t.rp_dur.(!ev);
      incr ev;
      delta := 0
    end;
    visit (!ev, !delta)
  done

(** Run back to the last write of the [size] bytes at data address
    [addr] at or before the current position: re-execute history from
    each checkpoint window (latest first), sampling the watched bytes
    after every instruction and every logged store, and land just after
    the most recent change found.  Register-allocated variables never
    reach here — {!Ldb.variable_range} refuses them first. *)
let run_back_to_write (t : t) ~(addr : int) ~(size : int) :
    (Ldb.target * (int * int), error) result =
  if size < 1 || size > 64 then Error (`Unsupported "watch range must be 1..64 bytes")
  else
    try
      let upto = t.rp_pos in
      (* checkpoint cursors at or before the current position, ascending *)
      let cursors =
        Array.to_list t.rp_cks
        |> List.map (fun ck -> (ck.Trace.ck_ev, ck.Trace.ck_delta))
        |> List.filter (fun c -> cursor_leq c upto)
        |> List.sort_uniq compare
      in
      let windows =
        (* (start, end] pairs, latest window first *)
        let rec pair = function
          | a :: (b :: _ as rest) -> (a, b) :: pair rest
          | [ last ] -> [ (last, upto) ]
          | [] -> []
        in
        List.rev (pair cursors)
      in
      let found = ref None in
      let scan (from, upto') =
        if !found = None && not (cursor_leq upto' from) then begin
          let n = position_raw t ~ev:(fst from) ~delta:(snd from) in
          let prev = ref (sample n ~addr ~size) in
          walk_window t n ~from ~upto:upto' (fun cur ->
              let now = sample n ~addr ~size in
              if not (String.equal now !prev) then found := Some cur;
              prev := now)
        end
      in
      List.iter scan windows;
      match !found with
      | None -> Error `No_write
      | Some (ev, delta) -> (
          match seek t ~ev ~delta with
          | Ok tg -> Ok (tg, t.rp_pos)
          | Error e -> Error e)
    with
    | Fail e -> Error e
    | Ram.Fault _ -> Error (`Unsupported "watched address outside target memory")

(** Jump to the end of recorded history (the instant the trace was
    fetched). *)
let seek_end (t : t) : (Ldb.target, error) result =
  seek t ~ev:(Array.length t.rp_reqs) ~delta:0
