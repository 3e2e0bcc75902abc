(** The debug server: many sessions, one debugger.

    Hanson's revisit of ldb reworked it client/server; this module takes
    the next step the ROADMAP asks for and makes one server safe for a
    fleet.  A {!session} wraps one {!Ldb.target} (one nub link, or one
    core dump) behind a small command protocol, and the server multiplexes
    any number of them over the shared interpreter.  The headline is not
    the multiplexing but the robustness contract around it:

    - {b crash isolation}: every command runs under a supervisor that
      converts any exception — transport fault, symbol-table poison,
      interpreter error — into a typed {!refusal} or session-state
      change.  Nothing a session does can propagate past its boundary;
      the server itself never dies.
    - {b liveness}: live sessions are heartbeat-probed.  A silent peer
      moves to {!Unresponsive} with bounded exponential backoff between
      probes; enough consecutive misses escalate to the PR-6 going-down
      path (core-dump salvage via the transport's [on_down] hook) and a
      typed [Down] state.
    - {b backpressure}: per-session RPC budgets per tick and a cap on
      admitted sessions.  Exceeding either yields a typed [Overloaded]
      refusal instead of queue collapse.
    - {b shared image cache}: sessions debugging the same program (same
      loader PostScript text) share one {!Ldb.image} — symbol tables,
      forced units and lookup indexes are forced once and served to all.
      A poisoned unit is quarantined inside {!Symtab}, so it degrades
      only the queries that touch it, in every session, without
      re-forcing or cross-contamination.

    Everything is observable: state transitions append to a bounded event
    log (the chaos soak's flight recorder), and {!stats} counts cache
    hits, refusals, downs and heals for the bench. *)

open Ldb_machine
module Chan = Ldb_nub.Chan
module Proto = Ldb_nub.Proto

(* --- session lifecycle ------------------------------------------------------ *)

(** The supervision state machine.  Transitions:
    [Healthy -> Unresponsive] (missed heartbeat or transport timeout),
    [Unresponsive -> Healthy] (a probe or command answered),
    [Healthy | Unresponsive -> Down] (link dead, or misses exhausted),
    [any -> Closed] (deliberate detach/kill/close).
    [Down] and [Closed] are terminal, except that a [Down] session still
    answers {!Fetch_core} when a core was salvaged on the way down. *)
type session_state =
  | Healthy
  | Unresponsive of {
      misses : int;  (** consecutive failed probes *)
      next_beat : int;  (** tick of the next probe (exponential backoff) *)
    }
  | Down of {
      reason : string;
      salvaged : bool;  (** a core dump was captured on the way down *)
    }
  | Closed

let state_name = function
  | Healthy -> "healthy"
  | Unresponsive { misses; _ } -> Printf.sprintf "unresponsive(%d)" misses
  | Down { salvaged; _ } -> if salvaged then "down(core)" else "down"
  | Closed -> "closed"

(** Resource caps.  [li_max_rpcs_per_tick] bounds one session's wire
    traffic between two {!tick}s; [li_max_core_bytes] bounds the
    serialized core a {!Fetch_core} may hold in the server. *)
type limits = {
  li_max_sessions : int;
  li_max_rpcs_per_tick : int;
  li_max_core_bytes : int;
  li_hb_every : int;  (** ticks between heartbeats on a healthy session *)
  li_hb_max_misses : int;  (** consecutive misses before escalating to Down *)
  li_hb_deadline : int;  (** pump deadline of a probe — probes fail fast *)
  li_max_log : int;  (** event-log entries kept before truncation *)
}

let default_limits =
  {
    li_max_sessions = 256;
    li_max_rpcs_per_tick = 512;
    li_max_core_bytes = 1 lsl 23;
    li_hb_every = 4;
    li_hb_max_misses = 3;
    li_hb_deadline = 4;
    li_max_log = 4096;
  }

type session = {
  ss_id : int;
  ss_name : string;
  ss_tg : Ldb.target;
  ss_image : string;  (** the image's id: its [im_hash], shared, never recomputed *)
  mutable ss_state : session_state;
  mutable ss_rpc_floor : int;  (** transport RPC count at the last tick *)
  mutable ss_hb_due : int;  (** tick of the next scheduled heartbeat *)
}

(* --- the server ------------------------------------------------------------- *)

type stats = {
  mutable sv_opened : int;
  mutable sv_cache_hits : int;  (** sessions served by an already-loaded image *)
  mutable sv_cache_misses : int;  (** images loaded *)
  mutable sv_refused : int;  (** typed refusals returned *)
  mutable sv_failed : int;  (** commands that failed, session surviving *)
  mutable sv_downs : int;  (** sessions that went down *)
  mutable sv_heartbeats : int;  (** probes sent *)
  mutable sv_heals : int;  (** Unresponsive -> Healthy transitions *)
  mutable sv_cond_compiles : int;  (** breakpoint-condition compilations asked for *)
  mutable sv_cond_rejected : int;  (** conditions the verifier refused to ship *)
  mutable sv_cond_hits : int;  (** stops delivered because a condition was true *)
}

type log_entry = { ev_tick : int; ev_session : int; ev_line : string }

let log_entry_to_string e =
  Printf.sprintf "[tick %4d] session %3d: %s" e.ev_tick e.ev_session e.ev_line

(** How a server turns condition text into verified bytecode.  The
    expression server lives a library above this one, so the compiler is
    injected (see {!set_cond_compiler}); a server without one refuses
    [Condition] commands, typedly. *)
type cond_compiler =
  Ldb.t ->
  Ldb.target ->
  addr:int ->
  string ->
  ( Ldb_nub.Bpcode.prog,
    [ `Error of string
    | `Unsupported of string
    | `Unverified of Ldb_nub.Bpverify.finding list ] )
  result

type t = {
  sv_d : Ldb.t;  (** the one debugger (and interpreter) under every session *)
  sv_sessions : (int, session) Hashtbl.t;  (** every session not yet closed *)
  sv_closed : (int, string * string) Hashtbl.t;
      (** tombstones of closed sessions: name and image id only, so a
          closed session's target, transport and process can be freed
          while later commands still get a typed [Session_closed] *)
  sv_images : (string, Ldb.image) Hashtbl.t;  (** keyed by the loader text, not its digest *)
  sv_limits : limits;
  sv_stats : stats;
  mutable sv_next_id : int;
  mutable sv_tick : int;
  mutable sv_log : log_entry list;  (** newest first, bounded *)
  mutable sv_log_len : int;
  mutable sv_log_dropped : int;  (** entries lost to the cap, for the marker *)
  mutable sv_compile_cond : cond_compiler option;
}

let create ?(limits = default_limits) () : t =
  {
    sv_d = Ldb.create ();
    sv_sessions = Hashtbl.create 64;
    sv_closed = Hashtbl.create 64;
    sv_images = Hashtbl.create 8;
    sv_limits = limits;
    sv_stats =
      { sv_opened = 0; sv_cache_hits = 0; sv_cache_misses = 0; sv_refused = 0;
        sv_failed = 0; sv_downs = 0; sv_heartbeats = 0; sv_heals = 0;
        sv_cond_compiles = 0; sv_cond_rejected = 0; sv_cond_hits = 0 };
    sv_next_id = 1;
    sv_tick = 0;
    sv_log = [];
    sv_log_len = 0;
    sv_log_dropped = 0;
    sv_compile_cond = None;
  }

let set_cond_compiler (sv : t) (f : cond_compiler) : unit = sv.sv_compile_cond <- Some f

let stats (sv : t) : stats = sv.sv_stats
let debugger (sv : t) : Ldb.t = sv.sv_d

let log (sv : t) (id : int) fmt =
  Printf.ksprintf
    (fun line ->
      sv.sv_log <- { ev_tick = sv.sv_tick; ev_session = id; ev_line = line } :: sv.sv_log;
      sv.sv_log_len <- sv.sv_log_len + 1;
      let cap = sv.sv_limits.li_max_log in
      if sv.sv_log_len > cap then begin
        (* drop a batch of the oldest, not one at a time: the trim is O(n)
           and must not run on every append once the log is full *)
        let keep = max 1 (cap - (cap / 4)) in
        sv.sv_log <- List.filteri (fun i _ -> i < keep) sv.sv_log;
        sv.sv_log_dropped <- sv.sv_log_dropped + (sv.sv_log_len - keep);
        sv.sv_log_len <- keep
      end)
    fmt

(** The event log, oldest first — the soak harness's flight recorder.
    Truncation is never silent: when the cap has dropped older entries, a
    marker entry (session 0, the server itself) opens the log saying how
    many are gone, so a reader knows the record starts mid-story. *)
let events (sv : t) : log_entry list =
  let entries = List.rev sv.sv_log in
  if sv.sv_log_dropped = 0 then entries
  else
    let oldest_tick = match entries with e :: _ -> e.ev_tick | [] -> sv.sv_tick in
    {
      ev_tick = oldest_tick;
      ev_session = 0;
      ev_line =
        Printf.sprintf "event log truncated: %d older entr%s dropped"
          sv.sv_log_dropped
          (if sv.sv_log_dropped = 1 then "y" else "ies");
    }
    :: entries

(** How many entries the cap has discarded so far. *)
let events_dropped (sv : t) : int = sv.sv_log_dropped

(** A session that is not closed. *)
let session (sv : t) (id : int) : session option = Hashtbl.find_opt sv.sv_sessions id

(** Every session that is not closed, by id. *)
let sessions (sv : t) : session list =
  Hashtbl.fold (fun _ s acc -> s :: acc) sv.sv_sessions []
  |> List.sort (fun a b -> compare a.ss_id b.ss_id)

let session_state (sv : t) (id : int) : session_state option =
  match session sv id with
  | Some s -> Some s.ss_state
  | None -> if Hashtbl.mem sv.sv_closed id then Some Closed else None

let live_sessions (sv : t) : int =
  Hashtbl.fold
    (fun _ s n ->
      match s.ss_state with Healthy | Unresponsive _ -> n + 1 | Down _ | Closed -> n)
    sv.sv_sessions 0

(* --- the command protocol --------------------------------------------------- *)

(** A session's commands; {!Command} parses and prints them. *)
type command = Command.server =
  | Break_function of string
  | Break_line of { file : string option; line : int }
  | Condition of { addr : int; cond : string }
  | Continue
  | Step_source
  | Where
  | Backtrace
  | Print of string
  | Read_int of string
  | Fetch_core
  | Detach
  | Kill

let command_name = Command.server_to_string

type reply =
  | R_unit
  | R_addr of int
  | R_addrs of int list
  | R_state of Ldb.state
  | R_text of string
  | R_int of int
  | R_core of Core.t

(** Why a command was not executed.  [Failed] is the crash-isolation
    catch-all: the command misfired (bad symbol, poisoned unit, transport
    retry exhaustion, ...) but the session survives.  The others are
    states of the session or server, not of the command. *)
type refusal =
  | No_such_session of int
  | Session_closed of int
  | Session_down of { reason : string; salvaged : bool }
  | Overloaded of string
  | Failed of string

let refusal_to_string = function
  | No_such_session id -> Printf.sprintf "no session %d" id
  | Session_closed id -> Printf.sprintf "session %d is closed" id
  | Session_down { reason; salvaged } ->
      Printf.sprintf "session is down (%s)%s" reason
        (if salvaged then "; a salvaged core answers `core`" else "")
  | Overloaded m -> "overloaded: " ^ m
  | Failed m -> "command failed: " ^ m

let state_to_string : Ldb.state -> string = function
  | Ldb.Running -> "running"
  | Ldb.Stopped { signal; code; _ } ->
      Printf.sprintf "stopped %s (code %#x)" (Signal.name signal) code
  | Ldb.Exited n -> Printf.sprintf "exited %d" n
  | Ldb.Detached -> "detached"

let reply_to_string = function
  | R_unit -> "ok"
  | R_addr a -> Printf.sprintf "%#x" a
  | R_addrs addrs ->
      String.concat " " (List.map (Printf.sprintf "%#x") addrs)
  | R_state st -> state_to_string st
  | R_text s -> s
  | R_int n -> string_of_int n
  | R_core co -> Printf.sprintf "core (%d bytes)" (String.length (Core.to_string co))

(** The addresses a [break] answered: a front end runs [break SPEC if
    EXPR] as the plant and then a {!Condition} at each of them. *)
let planted = function R_addr a -> [ a ] | R_addrs addrs -> addrs | _ -> []

(* --- opening and closing sessions ------------------------------------------- *)

(** The cached image for [loader_ps], loading it on first sight. *)
let image_for (sv : t) ~(loader_ps : string) : Ldb.image =
  match Hashtbl.find_opt sv.sv_images loader_ps with
  | Some im ->
      sv.sv_stats.sv_cache_hits <- sv.sv_stats.sv_cache_hits + 1;
      im
  | None ->
      let im = Ldb.load_image sv.sv_d ~loader_ps in
      Hashtbl.replace sv.sv_images im.Ldb.im_loader_ps im;
      sv.sv_stats.sv_cache_misses <- sv.sv_stats.sv_cache_misses + 1;
      im

let cached_images (sv : t) : int = Hashtbl.length sv.sv_images

let refuse (sv : t) (r : refusal) : ('a, refusal) result =
  sv.sv_stats.sv_refused <- sv.sv_stats.sv_refused + 1;
  Error r

let admit (sv : t) (name : string) ((im : Ldb.image), tg) : session =
  let id = sv.sv_next_id in
  sv.sv_next_id <- id + 1;
  let s =
    {
      ss_id = id;
      ss_name = name;
      ss_tg = tg;
      ss_image = im.Ldb.im_hash;
      ss_state = Healthy;
      ss_rpc_floor =
        (* the connect handshake is not charged against the first tick *)
        Ldb.rpcs tg;
      ss_hb_due = sv.sv_tick + sv.sv_limits.li_hb_every;
    }
  in
  Hashtbl.replace sv.sv_sessions id s;
  sv.sv_stats.sv_opened <- sv.sv_stats.sv_opened + 1;
  log sv id "opened (%s, image %s)" name (String.sub im.Ldb.im_hash 0 8);
  s

(** Admit the target [connect] makes, with the image it connected over,
    as a session.  Admission applies backpressure: a full server refuses
    with [Overloaded] before any image work.  Failures are typed. *)
let open_with (sv : t) ~(name : string) (connect : unit -> Ldb.image * Ldb.target) :
    (int, refusal) result =
  if live_sessions sv >= sv.sv_limits.li_max_sessions then
    refuse sv
      (Overloaded
         (Printf.sprintf "server full: %d live sessions" sv.sv_limits.li_max_sessions))
  else
    match connect () with
    | conn -> Ok (admit sv name conn).ss_id
    | exception e ->
        sv.sv_stats.sv_failed <- sv.sv_stats.sv_failed + 1;
        refuse sv (Failed (Ldb.exn_text e))

(** Open a session over a nub link. *)
let open_session ?deadline ?max_retries (sv : t) ~(name : string)
    ~(loader_ps : string) (chan : Chan.endpoint) : (int, refusal) result =
  open_with sv ~name (fun () ->
      let image = image_for sv ~loader_ps in
      (image, Ldb.connect_with_image ?deadline ?max_retries sv.sv_d ~name ~image chan))

(** Open a post-mortem session over a loaded core dump: queries only, no
    heartbeats, no transport. *)
let open_core_session (sv : t) ~(name : string) ~(loader_ps : string)
    (loaded : Core.t * Core.salvage list) : (int, refusal) result =
  open_with sv ~name (fun () ->
      let image = image_for sv ~loader_ps in
      (image, Ldb.connect_core_with_image sv.sv_d ~name ~image loaded))

(** Admit a target materialized elsewhere — a historical instant of a
    {!Replay} session over [image] — as a session of its own. *)
let open_target_session (sv : t) ~(name : string) ~(image : Ldb.image) (tg : Ldb.target) :
    (int, refusal) result =
  open_with sv ~name (fun () -> (image, tg))

(** Forget a released session, leaving only its tombstone. *)
let bury (sv : t) (s : session) : unit =
  s.ss_state <- Closed;
  Ldb.remove_target sv.sv_d s.ss_tg;
  Hashtbl.remove sv.sv_sessions s.ss_id;
  Hashtbl.replace sv.sv_closed s.ss_id (s.ss_name, s.ss_image)

(** Close a session: release the target (detach by default) and forget
    it.  A down session is forgotten without a release; closing a closed
    or unknown session is a no-op. *)
let close_session ?(kill = false) (sv : t) (id : int) : unit =
  match session sv id with
  | None -> ()
  | Some s ->
      (match s.ss_state with
      | Closed | Down _ -> ()
      | Healthy | Unresponsive _ ->
          (try if kill then Ldb.kill s.ss_tg else Ldb.detach s.ss_tg with _ -> ());
          log sv id "closed (%s)" (if kill then "killed" else "detached"));
      bury sv s

(* --- supervision ------------------------------------------------------------ *)

(** Take a session down: fire the transport's going-down hook (the PR-6
    salvage path — it grabs a core while the link still answers, at most
    once per connection) and record why. *)
let mark_down (sv : t) (s : session) ~(reason : string) : unit =
  (match s.ss_tg.Ldb.tg_conn with
  | Ldb.Live tr -> Transport.fire_down tr `Lost
  | Ldb.Postmortem _ -> ());
  let salvaged = s.ss_tg.Ldb.tg_core <> None in
  s.ss_state <- Down { reason; salvaged };
  sv.sv_stats.sv_downs <- sv.sv_stats.sv_downs + 1;
  log sv s.ss_id "down: %s%s" reason (if salvaged then " (core salvaged)" else "")

(** Release one session on the way to shutdown.  A healthy target is
    detached — {!Ldb.detach} runs the full [unplant_for_release] trap
    scrub, so the debuggee keeps running with clean text.  A target that
    cannot detach (wire already dead, scrub fails) goes down the salvage
    path instead: {!mark_down} grabs a core while anything still answers.
    Terminal sessions are left alone. *)
let drain_session (sv : t) (id : int) : [ `Detached | `Salvaged | `Already_over ] =
  match session sv id with
  | None -> `Already_over
  | Some s -> (
      match s.ss_state with
      | Closed | Down _ -> `Already_over
      | Healthy | Unresponsive _ -> (
          match Ldb.detach s.ss_tg with
          | () ->
              log sv id "drained (detached)";
              bury sv s;
              `Detached
          | exception _ ->
              mark_down sv s ~reason:"drain: detach failed";
              `Salvaged))

let heal (sv : t) (s : session) =
  match s.ss_state with
  | Unresponsive { misses; _ } ->
      s.ss_state <- Healthy;
      s.ss_hb_due <- sv.sv_tick + sv.sv_limits.li_hb_every;
      sv.sv_stats.sv_heals <- sv.sv_stats.sv_heals + 1;
      log sv s.ss_id "healed after %d missed probe%s" misses
        (if misses = 1 then "" else "s")
  | _ -> ()

(** One failed probe (or probe-like command failure): move toward Down
    with exponential backoff between probes, escalating when the miss
    budget is spent. *)
let suspect (sv : t) (s : session) ~(what : string) : unit =
  let misses =
    match s.ss_state with Unresponsive { misses; _ } -> misses + 1 | _ -> 1
  in
  if misses >= sv.sv_limits.li_hb_max_misses then
    mark_down sv s
      ~reason:(Printf.sprintf "unresponsive: %d consecutive misses (%s)" misses what)
  else begin
    let backoff = sv.sv_limits.li_hb_every * (1 lsl misses) in
    s.ss_state <- Unresponsive { misses; next_beat = sv.sv_tick + backoff };
    log sv s.ss_id "unresponsive (%s), probe %d/%d in %d ticks" what misses
      sv.sv_limits.li_hb_max_misses backoff
  end

let rpcs_since_tick (s : session) : int = Ldb.rpcs s.ss_tg - s.ss_rpc_floor

exception Refused of refusal

(** A delivered stop at a breakpoint that carries a condition is, by
    construction, a {e true} hit (false ones were resumed silently, on
    whichever side evaluates); count and log it with its suppressions. *)
let count_cond_hit (sv : t) (s : session) (st : Ldb.state) : unit =
  match st with
  | Ldb.Stopped { ctx_addr; _ } -> (
      let tg = s.ss_tg in
      match
        Hashtbl.find_opt tg.Ldb.tg_breaks (Ldb.read_ctx_pc tg ctx_addr)
      with
      | Some { Breakpoint.bp_cond = Some c; bp_addr; _ } ->
          sv.sv_stats.sv_cond_hits <- sv.sv_stats.sv_cond_hits + 1;
          log sv s.ss_id "condition %s true at %#x (%d silent resume%s so far)"
            c.Breakpoint.c_text bp_addr c.Breakpoint.c_suppressed
            (if c.Breakpoint.c_suppressed = 1 then "" else "s")
      | _ -> ())
  | _ -> ()

(** Run one command for one session.  Raises only {!Refused}; every other
    failure mode is converted here — this is the isolation boundary. *)
let run_command (sv : t) (s : session) (cmd : command) : reply =
  let d = sv.sv_d in
  let tg = s.ss_tg in
  let dead m = raise (Refused (Failed m)) in
  match cmd with
  | Break_function f -> R_addr (Ldb.break_function d tg f)
  | Break_line { file; line } -> R_addrs (Ldb.break_line ?file d tg ~line)
  | Condition { addr; cond } -> (
      match sv.sv_compile_cond with
      | None -> raise (Refused (Failed "this server has no condition compiler"))
      | Some compile -> (
          sv.sv_stats.sv_cond_compiles <- sv.sv_stats.sv_cond_compiles + 1;
          let rejected fs =
            sv.sv_stats.sv_cond_rejected <- sv.sv_stats.sv_cond_rejected + 1;
            let msg =
              String.concat "; " (List.map Ldb_nub.Bpverify.finding_to_string fs)
            in
            log sv s.ss_id "condition at %#x rejected by the verifier: %s" addr msg;
            raise (Refused (Failed ("unverified condition: " ^ msg)))
          in
          match compile d tg ~addr cond with
          | Ok prog -> (
              match Ldb.set_condition d tg ~addr ~text:cond prog with
              | Ok site ->
                  let where =
                    match site with `Nub -> "on the nub" | `Debugger -> "in the debugger"
                  in
                  log sv s.ss_id "condition at %#x: %s (runs %s)" addr cond where;
                  R_text ("condition runs " ^ where)
              | Error (`Unverified fs) -> rejected fs)
          | Error (`Unverified fs) -> rejected fs
          | Error (`Unsupported m) | Error (`Error m) -> raise (Refused (Failed m))))
  | Continue -> (
      match Ldb.continue_ d tg with
      | Ok st ->
          count_cond_hit sv s st;
          R_state st
      | Error (`Dead_process m) -> dead m)
  | Step_source -> (
      match Ldb.step_source d tg with
      | Ok st -> R_state st
      | Error (`Dead_process m) -> dead m)
  | Where -> R_text (Ldb.where d tg)
  | Backtrace ->
      let frames = Ldb.backtrace d tg in
      R_text
        (String.concat "\n"
           (List.mapi
              (fun i fr ->
                let line =
                  match Ldb.stop_of_frame d tg fr with
                  | Some st -> Printf.sprintf " line %d" st.Symtab.stop_line
                  | None -> ""
                in
                Printf.sprintf "#%d %s%s" i (Ldb.frame_function d tg fr) line)
              frames))
  | Print name -> R_text (String.trim (Ldb.print_value d tg (Ldb.top_frame d tg) name))
  | Read_int name -> R_int (Ldb.read_int_var d tg (Ldb.top_frame d tg) name)
  | Fetch_core ->
      let co = Ldb.fetch_core tg in
      let n = String.length (Core.to_string co) in
      if n > sv.sv_limits.li_max_core_bytes then
        raise
          (Refused
             (Overloaded
                (Printf.sprintf "core is %d bytes; the per-session cap is %d" n
                   sv.sv_limits.li_max_core_bytes)))
      else R_core co
  | Detach ->
      close_session sv s.ss_id;
      R_unit
  | Kill ->
      close_session ~kill:true sv s.ss_id;
      R_unit

(** Execute [cmd] on session [id], supervised.  All failure is typed:
    the server survives anything a session's wire or symbol table does.
    A command that answers on an [Unresponsive] session heals it. *)
let exec (sv : t) (id : int) (cmd : command) : (reply, refusal) result =
  match session sv id with
  | None when Hashtbl.mem sv.sv_closed id -> refuse sv (Session_closed id)
  | None -> refuse sv (No_such_session id)
  | Some s -> (
      match s.ss_state with
      | Closed -> refuse sv (Session_closed id)
      | Down { reason; salvaged } when not (salvaged && cmd = Fetch_core) ->
          (* a salvaged core still answers Fetch_core; everything else is
             over *)
          refuse sv (Session_down { reason; salvaged })
      | Down _ | Healthy | Unresponsive _ -> (
          if rpcs_since_tick s >= sv.sv_limits.li_max_rpcs_per_tick then
            refuse sv
              (Overloaded
                 (Printf.sprintf "session %d spent its %d-RPC budget this tick" id
                    sv.sv_limits.li_max_rpcs_per_tick))
          else
            match run_command sv s cmd with
            | reply ->
                heal sv s;
                Ok reply
            | exception Refused r ->
                sv.sv_stats.sv_failed <- sv.sv_stats.sv_failed + 1;
                refuse sv r
            | exception Transport.Error (Transport.Disconnected, m) ->
                mark_down sv s ~reason:m;
                let salvaged =
                  match s.ss_state with Down { salvaged; _ } -> salvaged | _ -> false
                in
                refuse sv (Session_down { reason = m; salvaged })
            | exception Transport.Error (_, m) ->
                (* link up but failing: treat like a missed probe *)
                suspect sv s ~what:(command_name cmd);
                sv.sv_stats.sv_failed <- sv.sv_stats.sv_failed + 1;
                refuse sv (Failed m)
            | exception e ->
                (* the catch-all that keeps the server alive *)
                sv.sv_stats.sv_failed <- sv.sv_stats.sv_failed + 1;
                log sv id "command %s failed: %s" (command_name cmd) (Ldb.exn_text e);
                refuse sv (Failed (Ldb.exn_text e))))

(* --- liveness --------------------------------------------------------------- *)

(** Probe one session with a fast-failing Hello (one attempt, short
    deadline — the probe must not ride the transport's full recovery
    policy, or a dead peer would stall the server's whole tick). *)
let heartbeat (sv : t) (s : session) : unit =
  match s.ss_tg.Ldb.tg_conn with
  | Ldb.Postmortem _ -> ()
  | Ldb.Live tr -> (
      sv.sv_stats.sv_heartbeats <- sv.sv_stats.sv_heartbeats + 1;
      match
        Transport.rpc ~deadline:sv.sv_limits.li_hb_deadline ~max_retries:0 tr
          Proto.Hello
      with
      | _ ->
          (* any answer, even a strange one: the peer is alive *)
          heal sv s;
          s.ss_hb_due <- sv.sv_tick + sv.sv_limits.li_hb_every
      | exception Transport.Error (Transport.Disconnected, m) ->
          mark_down sv s ~reason:m
      | exception Transport.Error (_, m) -> suspect sv s ~what:("heartbeat: " ^ m)
      | exception e -> suspect sv s ~what:("heartbeat: " ^ Ldb.exn_text e))

(** Advance the server's clock: reset every session's per-tick RPC budget
    and probe the sessions whose heartbeat is due.  An [Unresponsive]
    session's next probe follows its backoff schedule. *)
let tick (sv : t) : unit =
  sv.sv_tick <- sv.sv_tick + 1;
  Hashtbl.iter
    (fun _ s ->
      s.ss_rpc_floor <- Ldb.rpcs s.ss_tg;
      match s.ss_state with
      | Healthy when sv.sv_tick >= s.ss_hb_due -> heartbeat sv s
      | Unresponsive { next_beat; _ } when sv.sv_tick >= next_beat -> heartbeat sv s
      | _ -> ())
    sv.sv_sessions

(* --- reporting -------------------------------------------------------------- *)

(** One line per session, closed ones included, for the CLI and the soak
    log. *)
let render_sessions (sv : t) : string =
  let rows =
    Hashtbl.fold (fun id (name, image) acc -> (id, name, Closed, image) :: acc)
      sv.sv_closed
      (List.map (fun s -> (s.ss_id, s.ss_name, s.ss_state, s.ss_image)) (sessions sv))
  in
  let b = Buffer.create 256 in
  List.iter
    (fun (id, name, state, image) ->
      Buffer.add_string b
        (Printf.sprintf "%3d  %-16s %-10s image %s\n" id name (state_name state)
           (String.sub image 0 8)))
    (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) rows);
  Buffer.contents b
