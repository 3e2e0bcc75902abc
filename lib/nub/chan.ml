(** In-memory duplex byte channels standing in for the paper's sockets.

    A channel endpoint reads bytes its peer wrote.  Reads never block:
    when bytes are missing, the endpoint invokes its registered {e pump} —
    a closure that gives the peer a chance to produce output (for the
    debugger's endpoint, the pump runs the target's nub).  This is the
    discrete-event analogue of blocking on a socket while the other process
    runs.

    Failure semantics are differentiated so callers can pick a recovery:

    - {!Disconnected}: the link itself is down (either side called
      [disconnect], or a fault cut it mid-message).  Retrying a read is
      pointless; the caller must reattach.
    - {!Timeout}: the link is up but the peer produced nothing for a
      receiver's deadline of consecutive pumps ({!Frame.recv}'s
      [~deadline]).  The caller may retry (the transport layer re-sends
      the request with a longer deadline).

    Endpoints survive a peer "crash": [disconnect] drops the link but the
    nub's endpoint object remains, matching the paper's requirement that
    the nub preserve target state across debugger crashes.

    For fault-injection (see {!Faultchan}) an endpoint carries an optional
    [on_send] hook: when present it is invoked {e instead of} enqueuing the
    bytes, and decides what actually reaches the peer via {!deliver}. *)

exception Disconnected
exception Timeout

type fifo = { q : Buffer.t; mutable rpos : int }

let fifo () = { q = Buffer.create 256; rpos = 0 }
let fifo_len f = Buffer.length f.q - f.rpos

let fifo_compact f =
  if f.rpos > 65536 && f.rpos = Buffer.length f.q then begin
    Buffer.clear f.q;
    f.rpos <- 0
  end

let fifo_peek f n =
  let take = min n (fifo_len f) in
  Buffer.sub f.q f.rpos take

let fifo_skip f n =
  f.rpos <- f.rpos + min n (fifo_len f);
  fifo_compact f

(** Link state shared by both endpoints: a disconnect from either side
    takes the whole link down, and the peer can observe it directly
    (rather than inferring it from a stall). *)
type link = { mutable up : bool }

type endpoint = {
  mutable rx : fifo;  (** bytes the peer wrote for us *)
  mutable tx : fifo;  (** bytes we write for the peer *)
  link : link;
  mutable pump : unit -> unit;  (** let the peer make progress *)
  mutable on_send : (string -> unit) option;
      (** fault-injection hook: replaces direct delivery when set *)
  label : string;
}

(** Create a connected pair of endpoints. *)
let pair ?(labels = ("a", "b")) () =
  let ab = fifo () and ba = fifo () in
  let link = { up = true } in
  let mk rx tx label =
    { rx; tx; link; pump = (fun () -> ()); on_send = None; label }
  in
  (mk ba ab (fst labels), mk ab ba (snd labels))

let set_pump e f = e.pump <- f
let pump_of e = e.pump
let set_on_send e f = e.on_send <- f
let is_connected e = e.link.up

(** Sever the link.  Both sides observe it: sends raise {!Disconnected}
    immediately, reads raise it once the already-buffered bytes run out. *)
let disconnect e = e.link.up <- false

(** Enqueue bytes for the peer, bypassing the [on_send] hook — this is
    what the hook itself uses to deliver (possibly mangled) bytes. *)
let deliver e (s : string) = Buffer.add_string e.tx.q s

let send e (s : string) =
  if not e.link.up then raise Disconnected;
  match e.on_send with None -> deliver e s | Some hook -> hook s

(** Bytes currently readable without pumping. *)
let available e = fifo_len e.rx

(** Up to [n] readable bytes, without consuming them. *)
let peek e n = fifo_peek e.rx n

(** Discard up to [n] readable bytes. *)
let skip e n = fifo_skip e.rx n
