(** The server's event loop: many client connections, one {!Server},
    deterministic ticks.

    {!Swire} says what bytes mean; this module decides {e when} to read
    them, {e whether} to trust the peer sending them, and {e who} gets
    served next.  Connections are abstract {!io} endpoints, so the same
    loop runs over the discrete-event sim (chaos-testable under [dune
    runtest], with {!Ldb_nub.Faultchan} injecting seeded wire faults) and
    over real Unix sockets (the [-listen] daemon in [bin/ldb_main.ml]).

    The robustness layer, in the order a hostile client meets it:

    - {b admission control}: past [el_max_conns] (or once draining) a new
      connection is refused with a typed [Overloaded] frame {e before any
      handshake work} — no session, no parse, no allocation beyond the
      refusal itself.
    - {b handshake}: the first frame must be a versioned [LDBSRV1] hello;
      anything else is answered with a typed error and closed.
    - {b bounded buffers}: a connection may buffer at most [el_rx_buffer]
      unparsed bytes; overflowing is a protocol offense.
    - {b read deadlines}: a frame that sits incomplete for
      [el_read_deadline] ticks is presumed torn — the buffer is resynced
      past its magic and the connection earns a strike; [el_max_strikes]
      strikes is slowloris, and the client is quarantined (typed goodbye,
      session detached cleanly).
    - {b protocol-error budget}: garbage, bad CRCs and undecodable
      messages each earn a typed [S_error] reply, up to [el_max_errors];
      past that the connection is quarantined.
    - {b idle reaping}: a connection with nothing buffered, nothing
      queued and no traffic for [el_idle_timeout] ticks is half-open; its
      session goes down the heartbeat/[fire_down] salvage path
      ({!Server.mark_down}) so the target's core is grabbed while the nub
      still answers.
    - {b fair scheduling}: commands are served by deficit round robin
      with post-charging — each backlogged connection is credited
      [el_quantum × weight] per tick and pays the {e actual} RPC cost of
      each command after running it (the cost is unknowable beforehand),
      overdraft carrying forward — so one chatty client cannot drain the
      tick budget that used to go first-come-first-served.
    - {b graceful drain}: {!drain} stops admitting, refuses new commands
      typedly, finishes queued in-flight work, then releases every
      session — detach (with its [unplant_for_release] trap scrub) when
      the target answers, core salvage when it cannot — all bounded by
      [el_drain_deadline].

    The loop never raises on client behavior: every decode failure is a
    typed reply, every close is accounted, and the supervised {!Server}
    underneath already isolates whatever a session's own wire does. *)

module Chan = Ldb_nub.Chan
module Faultchan = Ldb_nub.Faultchan

(* --- abstract byte endpoints -------------------------------------------------- *)

(** What the loop needs from a connection's byte stream.  [io_read] is
    non-blocking: it returns whatever has arrived, [""] when nothing has.
    [io_alive] is the {e observable} disconnect — half-open peers look
    alive and are caught by deadlines instead. *)
type io = {
  io_label : string;
  io_read : unit -> string;
  io_write : string -> unit;
  io_alive : unit -> bool;
  io_close : unit -> unit;
}

(** The server side of a sim channel as an {!io}. *)
let io_of_endpoint (ep : Chan.endpoint) : io =
  {
    io_label = ep.Chan.label;
    io_read =
      (fun () ->
        let n = Chan.available ep in
        if n = 0 then ""
        else begin
          let s = Chan.peek ep n in
          Chan.skip ep n;
          s
        end);
    io_write = (fun s -> Chan.send ep s);
    io_alive = (fun () -> Chan.is_connected ep);
    io_close = (fun () -> Chan.disconnect ep);
  }

(** A connected sim link: the client's endpoint and the server's {!io}.
    With [~fault], a seeded {!Faultchan} is interposed — both directions
    suffer the profile's faults, and the returned injector must be
    {!Faultchan.tick}ed (or the client endpoint pumped) to age stalls. *)
let sim_link ?fault () : Chan.endpoint * io * Faultchan.t option =
  let client_end, server_end = Chan.pair ~labels:("client", "server") () in
  let fc =
    match fault with
    | None -> None
    | Some (seed, prof) ->
        Some (Faultchan.install ~seed prof ~dbg:client_end ~nub:server_end)
  in
  (client_end, io_of_endpoint server_end, fc)

(* --- connections -------------------------------------------------------------- *)

type phase =
  | Greeting  (** accepted; the versioned hello has not arrived yet *)
  | Serving of int  (** hello answered; bound to this server session *)

type conn = {
  cn_id : int;
  cn_io : io;
  cn_weight : int;  (** DRR weight; quantum credit scales with it *)
  mutable cn_phase : phase;
  mutable cn_rx : string;  (** unparsed received bytes, bounded *)
  mutable cn_q : Server.command Queue.t;
  mutable cn_tx_seq : int;
  mutable cn_deficit : int;  (** DRR balance; negative = overdraft *)
  mutable cn_partial_since : int option;
      (** tick when the currently-incomplete frame started sitting *)
  mutable cn_last_activity : int;
  mutable cn_strikes : int;  (** read-deadline expiries *)
  mutable cn_errors : int;  (** protocol offenses *)
  mutable cn_served : int;  (** commands executed for this connection *)
  mutable cn_open : bool;
}

type limits = {
  el_max_conns : int;
  el_rx_buffer : int;  (** unparsed bytes buffered per connection *)
  el_read_deadline : int;  (** ticks a frame may sit incomplete *)
  el_idle_timeout : int;  (** quiet ticks before a connection is half-open *)
  el_quantum : int;  (** DRR credit per tick per unit of weight *)
  el_max_queued : int;  (** commands queued per connection *)
  el_max_strikes : int;  (** deadline expiries before quarantine *)
  el_max_errors : int;  (** protocol offenses before quarantine *)
  el_drain_deadline : int;  (** ticks {!drain} may spend finishing work *)
}

let default_limits =
  {
    el_max_conns = 128;
    el_rx_buffer = 1 lsl 16;
    el_read_deadline = 8;
    el_idle_timeout = 64;
    el_quantum = 64;
    el_max_queued = 64;
    el_max_strikes = 3;
    el_max_errors = 32;
    el_drain_deadline = 256;
  }

type stats = {
  mutable es_admitted : int;
  mutable es_refused_admission : int;  (** typed [Overloaded] before handshake *)
  mutable es_frames : int;  (** well-formed frames received *)
  mutable es_protocol_errors : int;  (** garbage, bad CRC, undecodable, torn *)
  mutable es_quarantined : int;  (** connections closed for offenses *)
  mutable es_reaped_idle : int;  (** half-open connections reaped *)
  mutable es_disconnects : int;  (** observable client disconnects *)
  mutable es_served : int;  (** commands executed *)
  mutable es_refusals_sent : int;  (** typed refusal frames sent *)
  mutable es_bytes_in : int;
  mutable es_bytes_out : int;
}

(** How a new connection gets its server session: called once per
    accepted connection when its hello arrives.  The daemon launches a
    fresh process of its image here; the test harness picks an arch by
    [conn_id].  A refusal is sent to the client verbatim. *)
type binder = conn_id:int -> (int, Server.refusal) result

type t = {
  el_sv : Server.t;
  el_limits : limits;
  el_stats : stats;
  el_bind : binder;
  mutable el_conns : conn list;  (** open and recently-closed, id order *)
  mutable el_next_conn : int;
  mutable el_tick : int;
  mutable el_draining : bool;
}

let create ?(limits = default_limits) ~(bind : binder) (sv : Server.t) : t =
  {
    el_sv = sv;
    el_limits = limits;
    el_stats =
      { es_admitted = 0; es_refused_admission = 0; es_frames = 0;
        es_protocol_errors = 0; es_quarantined = 0; es_reaped_idle = 0;
        es_disconnects = 0; es_served = 0; es_refusals_sent = 0;
        es_bytes_in = 0; es_bytes_out = 0 };
    el_bind = bind;
    el_conns = [];
    el_next_conn = 1;
    el_tick = 0;
    el_draining = false;
  }

let stats (t : t) : stats = t.el_stats
let server (t : t) : Server.t = t.el_sv
let draining (t : t) : bool = t.el_draining
let conns (t : t) : conn list = List.filter (fun c -> c.cn_open) t.el_conns
let conn (t : t) (id : int) : conn option =
  List.find_opt (fun c -> c.cn_id = id) t.el_conns

let log t fmt = Server.log t.el_sv 0 fmt

(* --- sending ------------------------------------------------------------------ *)

(** Frame and send one server message.  A write that fails (peer already
    gone) is absorbed: the close path will notice via [io_alive]. *)
let send_msg (t : t) (c : conn) (m : Swire.server_msg) : unit =
  let frame = Swire.seal ~seq:c.cn_tx_seq (Swire.encode_server m) in
  c.cn_tx_seq <- c.cn_tx_seq + 1;
  t.el_stats.es_bytes_out <- t.el_stats.es_bytes_out + String.length frame;
  (match m with
  | Swire.S_refused _ -> t.el_stats.es_refusals_sent <- t.el_stats.es_refusals_sent + 1
  | _ -> ());
  try c.cn_io.io_write frame with _ -> ()

(** Close a connection's byte stream and forget its buffers.  What
    happens to its session is the caller's decision — the three close
    paths (clean, quarantine, reap) differ exactly there. *)
let close_conn (c : conn) : unit =
  if c.cn_open then begin
    c.cn_open <- false;
    c.cn_rx <- "";
    Queue.clear c.cn_q;
    try c.cn_io.io_close () with _ -> ()
  end

let session_of (c : conn) : int option =
  match c.cn_phase with Serving sid -> Some sid | Greeting -> None

(** Clean release: the client said goodbye or observably disconnected.
    The server↔nub link is independent of the client wire, so the target
    is detached properly ([unplant_for_release] scrubs the traps) even
    though the client is gone. *)
let release_clean (t : t) (c : conn) : unit =
  (match session_of c with
  | Some sid -> Server.close_session t.el_sv sid
  | None -> ());
  close_conn c

(** Quarantine: the client earned it (slowloris, offense budget spent).
    Typed goodbye, then a clean detach — the {e target} did nothing
    wrong. *)
let quarantine (t : t) (c : conn) ~(why : string) : unit =
  t.el_stats.es_quarantined <- t.el_stats.es_quarantined + 1;
  log t "conn %d quarantined: %s" c.cn_id why;
  send_msg t c (Swire.S_bye ("quarantined: " ^ why));
  release_clean t c

(** Reap a half-open connection: the client may still believe it is
    connected, so this is the link-loss path — {!Server.mark_down} fires
    the transport's going-down hook and salvages a core while the nub
    still answers, exactly as a missed-heartbeat escalation would. *)
let reap_half_open (t : t) (c : conn) : unit =
  t.el_stats.es_reaped_idle <- t.el_stats.es_reaped_idle + 1;
  log t "conn %d reaped: half-open (idle %d ticks)" c.cn_id
    (t.el_tick - c.cn_last_activity);
  (match session_of c with
  | Some sid -> (
      match Server.session t.el_sv sid with
      | Some s -> (
          match s.Server.ss_state with
          | Server.Healthy | Server.Unresponsive _ ->
              Server.mark_down t.el_sv s ~reason:"half-open client reaped"
          | Server.Down _ | Server.Closed -> ())
      | None -> ())
  | None -> ());
  send_msg t c (Swire.S_bye "reaped: half-open connection");
  close_conn c

(* --- admission ---------------------------------------------------------------- *)

(** Admit a connection, or refuse it with a typed [Overloaded] frame
    before any handshake work.  The refusal is the {e only} work a
    connection past the cap (or arriving during drain) costs. *)
let accept ?(weight = 1) (t : t) (io : io) : [ `Conn of int | `Refused ] =
  let refuse why =
    t.el_stats.es_refused_admission <- t.el_stats.es_refused_admission + 1;
    let frame =
      Swire.seal ~seq:0
        (Swire.encode_server (Swire.S_refused (Server.Overloaded why)))
    in
    t.el_stats.es_bytes_out <- t.el_stats.es_bytes_out + String.length frame;
    t.el_stats.es_refusals_sent <- t.el_stats.es_refusals_sent + 1;
    (try io.io_write frame with _ -> ());
    (try io.io_close () with _ -> ());
    `Refused
  in
  if t.el_draining then refuse "server is draining"
  else if List.length (conns t) >= t.el_limits.el_max_conns then
    refuse
      (Printf.sprintf "server full: %d connections" t.el_limits.el_max_conns)
  else begin
    let id = t.el_next_conn in
    t.el_next_conn <- id + 1;
    let c =
      {
        cn_id = id;
        cn_io = io;
        cn_weight = max 1 weight;
        cn_phase = Greeting;
        cn_rx = "";
        cn_q = Queue.create ();
        cn_tx_seq = 0;
        cn_deficit = 0;
        cn_partial_since = None;
        cn_last_activity = t.el_tick;
        cn_strikes = 0;
        cn_errors = 0;
        cn_served = 0;
        cn_open = true;
      }
    in
    t.el_conns <- t.el_conns @ [ c ];
    t.el_stats.es_admitted <- t.el_stats.es_admitted + 1;
    `Conn id
  end

(* --- the hostile-byte path ---------------------------------------------------- *)

(** Record one protocol offense; quarantines when the budget is spent.
    Returns [true] when the connection survived. *)
let offense (t : t) (c : conn) (err : Swire.error) : bool =
  t.el_stats.es_protocol_errors <- t.el_stats.es_protocol_errors + 1;
  c.cn_errors <- c.cn_errors + 1;
  send_msg t c (Swire.S_error (Swire.error_to_string err));
  if c.cn_errors >= t.el_limits.el_max_errors then begin
    quarantine t c ~why:(Printf.sprintf "%d protocol errors" c.cn_errors);
    false
  end
  else true

let handle_hello (t : t) (c : conn) (magic : string) : unit =
  if magic <> Swire.version_magic then begin
    t.el_stats.es_protocol_errors <- t.el_stats.es_protocol_errors + 1;
    send_msg t c
      (Swire.S_error
         (Printf.sprintf "unsupported version %S (this server speaks %S)" magic
            Swire.version_magic));
    release_clean t c
  end
  else
    match t.el_bind ~conn_id:c.cn_id with
    | Ok sid ->
        c.cn_phase <- Serving sid;
        log t "conn %d bound to session %d" c.cn_id sid;
        send_msg t c (Swire.S_hello { session = sid })
    | Error r ->
        send_msg t c (Swire.S_refused r);
        release_clean t c

let handle_msg (t : t) (c : conn) (m : Swire.client_msg) : unit =
  match (c.cn_phase, m) with
  | Greeting, Swire.C_hello { magic } -> handle_hello t c magic
  | Greeting, _ ->
      (* commands before the handshake: a client that skipped hello is
         not speaking this protocol; answer and hang up *)
      t.el_stats.es_protocol_errors <- t.el_stats.es_protocol_errors + 1;
      send_msg t c (Swire.S_error "expected a versioned hello first");
      release_clean t c
  | Serving _, Swire.C_hello _ ->
      ignore (offense t c (Swire.Bad_message "duplicate hello"))
  | Serving _, Swire.C_cmd cmd ->
      if t.el_draining then
        send_msg t c
          (Swire.S_refused (Server.Overloaded "server is draining: no new commands"))
      else if Queue.length c.cn_q >= t.el_limits.el_max_queued then
        send_msg t c
          (Swire.S_refused
             (Server.Overloaded
                (Printf.sprintf "connection %d has %d commands queued" c.cn_id
                   (Queue.length c.cn_q))))
      else Queue.add cmd c.cn_q
  | Serving _, Swire.C_bye ->
      log t "conn %d said goodbye (%d served)" c.cn_id c.cn_served;
      send_msg t c (Swire.S_bye "goodbye");
      release_clean t c

(** Parse everything parseable out of a connection's buffer.  Garbage and
    damaged frames are typed offenses with magic-scan resync; an
    incomplete tail starts the read-deadline clock. *)
let rec parse_frames (t : t) (c : conn) : unit =
  if c.cn_open then
    match Swire.scan c.cn_rx with
    | Swire.S_need ->
        if String.length c.cn_rx = 0 then c.cn_partial_since <- None
        else if c.cn_partial_since = None then
          c.cn_partial_since <- Some t.el_tick
    | Swire.S_skip { skip; error } ->
        c.cn_rx <- String.sub c.cn_rx skip (String.length c.cn_rx - skip);
        c.cn_partial_since <- None;
        if offense t c error then parse_frames t c
    | Swire.S_frame { payload; used; _ } ->
        c.cn_rx <- String.sub c.cn_rx used (String.length c.cn_rx - used);
        c.cn_partial_since <- None;
        c.cn_last_activity <- t.el_tick;
        t.el_stats.es_frames <- t.el_stats.es_frames + 1;
        (match Swire.decode_client payload with
        | Ok m -> handle_msg t c m
        | Error e -> ignore (offense t c e));
        parse_frames t c

(** Pull arrived bytes into the connection's buffer; an overflow is an
    offense serious enough to quarantine outright — a well-behaved client
    cannot outrun the parser by [el_rx_buffer] bytes. *)
let read_io (t : t) (c : conn) : unit =
  let bytes = try c.cn_io.io_read () with _ -> "" in
  if bytes <> "" then begin
    t.el_stats.es_bytes_in <- t.el_stats.es_bytes_in + String.length bytes;
    c.cn_rx <- c.cn_rx ^ bytes;
    if String.length c.cn_rx > t.el_limits.el_rx_buffer then begin
      t.el_stats.es_protocol_errors <- t.el_stats.es_protocol_errors + 1;
      quarantine t c
        ~why:
          (Printf.sprintf "receive buffer overflow (%d bytes unparsed)"
             (String.length c.cn_rx))
    end
  end

(** The read-deadline: a frame that has sat incomplete too long is
    presumed torn (its header promises bytes that will never come).
    Resync past its magic, strike the connection, and let the strike
    budget decide whether this is one torn frame or a slowloris. *)
let check_read_deadline (t : t) (c : conn) : unit =
  match c.cn_partial_since with
  | Some since when t.el_tick - since > t.el_limits.el_read_deadline ->
      c.cn_rx <- Ldb_util.Bytecodec.resync c.cn_rx;
      c.cn_partial_since <- None;
      c.cn_strikes <- c.cn_strikes + 1;
      t.el_stats.es_protocol_errors <- t.el_stats.es_protocol_errors + 1;
      if c.cn_strikes >= t.el_limits.el_max_strikes then
        quarantine t c
          ~why:(Printf.sprintf "slow client: %d stalled frames" c.cn_strikes)
      else begin
        send_msg t c
          (Swire.S_error
             (Printf.sprintf "read deadline: frame incomplete after %d ticks"
                t.el_limits.el_read_deadline));
        (* the resync may have exposed a complete frame behind the lie *)
        parse_frames t c
      end
  | _ -> ()

(* --- fair scheduling ---------------------------------------------------------- *)

let session_rpcs (t : t) (sid : int) : int =
  match Server.session t.el_sv sid with
  | Some s -> (
      match s.Server.ss_tg.Ldb.tg_conn with
      | Ldb.Live tr -> (Transport.stats tr).Transport.st_rpcs
      | Ldb.Postmortem _ -> 0)
  | None -> 0

(** Serve one connection's queue under its deficit.  Post-charging DRR:
    a command runs while the balance is positive and is charged its
    actual transport cost afterwards — the overdraft carries, so an
    expensive command steals from its own connection's future, not from
    the other connections' present. *)
let serve_conn (t : t) (c : conn) (sid : int) : unit =
  while c.cn_open && c.cn_deficit > 0 && not (Queue.is_empty c.cn_q) do
    let cmd = Queue.pop c.cn_q in
    let before = session_rpcs t sid in
    let res = Server.exec t.el_sv sid cmd in
    let cost = max 1 (session_rpcs t sid - before) in
    c.cn_deficit <- c.cn_deficit - cost;
    c.cn_served <- c.cn_served + 1;
    c.cn_last_activity <- t.el_tick;
    t.el_stats.es_served <- t.el_stats.es_served + 1;
    match res with
    | Ok r -> send_msg t c (Swire.S_reply r)
    | Error r -> send_msg t c (Swire.S_refused r)
  done;
  (* an emptied queue forfeits leftover credit (classic DRR: inactive
     flows do not bank the past), but debt is remembered *)
  if Queue.is_empty c.cn_q && c.cn_deficit > 0 then c.cn_deficit <- 0

(** One DRR round: every backlogged connection is credited its quantum,
    then served in connection order under its balance. *)
let serve_round (t : t) : unit =
  List.iter
    (fun c ->
      if c.cn_open && not (Queue.is_empty c.cn_q) then
        c.cn_deficit <- c.cn_deficit + (t.el_limits.el_quantum * c.cn_weight))
    t.el_conns;
  List.iter
    (fun c ->
      match (c.cn_open, session_of c) with
      | true, Some sid -> serve_conn t c sid
      | _ -> ())
    t.el_conns

(* --- the tick ----------------------------------------------------------------- *)

(** Advance the loop one tick: ingest bytes, parse frames, enforce
    deadlines, reap the dead and the half-open, serve one fair round, and
    let the server run its heartbeats.  Deterministic: connections are
    always visited in admission order. *)
let tick (t : t) : unit =
  t.el_tick <- t.el_tick + 1;
  List.iter
    (fun c ->
      if c.cn_open then begin
        read_io t c;
        parse_frames t c;
        check_read_deadline t c;
        if c.cn_open then begin
          if (not (c.cn_io.io_alive ())) && String.length c.cn_rx = 0 then begin
            (* observable disconnect, buffer drained: clean release *)
            t.el_stats.es_disconnects <- t.el_stats.es_disconnects + 1;
            log t "conn %d disconnected (%d served)" c.cn_id c.cn_served;
            release_clean t c
          end
          else if
            Queue.is_empty c.cn_q
            && String.length c.cn_rx = 0
            && t.el_tick - c.cn_last_activity > t.el_limits.el_idle_timeout
          then reap_half_open t c
        end
      end)
    t.el_conns;
  serve_round t;
  Server.tick t.el_sv;
  (* forget closed connections; their stats already counted *)
  t.el_conns <- List.filter (fun c -> c.cn_open) t.el_conns

(* --- graceful drain ----------------------------------------------------------- *)

type drain_report = {
  dr_ticks : int;  (** ticks spent finishing in-flight work *)
  dr_completed : bool;  (** every queue emptied before the deadline *)
  dr_detached : int;  (** sessions released by a clean detach *)
  dr_salvaged : int;  (** sessions that could not detach; core salvaged *)
  dr_conns_closed : int;  (** connections said goodbye to *)
}

(** Stop admitting and stop accepting new commands; queued work still
    runs.  Idempotent. *)
let begin_drain (t : t) : unit =
  if not t.el_draining then begin
    t.el_draining <- true;
    log t "drain: admissions closed, finishing %d queued command%s"
      (List.fold_left (fun n c -> n + Queue.length c.cn_q) 0 t.el_conns)
      (if List.fold_left (fun n c -> n + Queue.length c.cn_q) 0 t.el_conns = 1
       then ""
       else "s")
  end

let queued (t : t) : int =
  List.fold_left
    (fun n c -> if c.cn_open then n + Queue.length c.cn_q else n)
    0 t.el_conns

(** Drain to a stop: finish in-flight commands (bounded by
    [el_drain_deadline] ticks), say goodbye to every connection, then
    release every session the server still holds — clean detach when the
    target answers, core salvage when it cannot.  The report says whether
    the deadline was met and how each session went out. *)
let drain (t : t) : drain_report =
  begin_drain t;
  let start = t.el_tick in
  let deadline = t.el_tick + t.el_limits.el_drain_deadline in
  while queued t > 0 && t.el_tick < deadline do
    tick t
  done;
  let completed = queued t = 0 in
  let closed = ref 0 in
  List.iter
    (fun c ->
      if c.cn_open then begin
        incr closed;
        send_msg t c (Swire.S_bye "server draining: goodbye");
        close_conn c
      end)
    t.el_conns;
  t.el_conns <- [];
  let detached = ref 0 and salvaged = ref 0 in
  List.iter
    (fun s ->
      match Server.drain_session t.el_sv s.Server.ss_id with
      | `Detached -> incr detached
      | `Salvaged -> incr salvaged
      | `Already_over -> ())
    (Server.sessions t.el_sv);
  log t "drain: %s after %d ticks, %d detached, %d salvaged, %d conns closed"
    (if completed then "complete" else "deadline expired")
    (t.el_tick - start) !detached !salvaged !closed;
  {
    dr_ticks = t.el_tick - start;
    dr_completed = completed;
    dr_detached = !detached;
    dr_salvaged = !salvaged;
    dr_conns_closed = !closed;
  }
