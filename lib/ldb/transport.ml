(** The debugger's resilient end of the ldb↔nub link.

    Wraps a {!Ldb_nub.Chan} endpoint with the recovery policy the raw
    channel deliberately does not have:

    - every request travels as a checksummed, sequence-numbered frame
      ({!Ldb_nub.Frame});
    - a checksum failure or timeout triggers a bounded retry of the same
      request {e under the same sequence number} — the nub executes at
      most once and retransmits its cached reply to duplicates;
    - waiting "backs off" by doubling the pump deadline each attempt,
      the discrete-event analogue of exponential backoff, which rides
      out injected stalls;
    - stale replies (sequence number below the outstanding request) are
      discarded, so a duplicated or delayed reply can never be taken for
      the answer to a later question;
    - failures surface as one typed exception, {!Error}, classified
      {!Timeout} (link up, peer silent — retrying may help),
      {!Corrupt} (retries exhausted on damaged frames) or
      {!Disconnected} (link down — only {!reconnect}, followed by the
      caller's resync, can help).

    The transport survives its channel: [reconnect] swaps in a fresh
    endpoint after the old link died, preserving the caller's wire
    abstract memory and everything built over it.

    A repeated [Fetch] is answered from a memo of the replies fetched
    since the last request that could change the target (see {!rpc}). *)

module Chan = Ldb_nub.Chan
module Frame = Ldb_nub.Frame
module Proto = Ldb_nub.Proto

type kind = Timeout | Corrupt | Disconnected

let kind_name = function
  | Timeout -> "timeout"
  | Corrupt -> "corrupt"
  | Disconnected -> "disconnected"

exception Error of kind * string

let error kind fmt =
  Fmt.kstr (fun m -> raise (Error (kind, Printf.sprintf "%s: %s" (kind_name kind) m))) fmt

type stats = {
  mutable st_rpcs : int;            (** requests sent as frames; a fetch
                                        answered from the memo sends none *)
  mutable st_replies : int;         (** replies received from the nub *)
  mutable st_retries : int;         (** re-sends after a failed attempt *)
  mutable st_corrupt : int;         (** corrupt frames observed *)
  mutable st_timeouts : int;        (** attempts that timed out *)
  mutable st_stale : int;           (** stale duplicate replies discarded *)
  mutable st_reconnects : int;      (** endpoints swapped in *)
  mutable st_down_fires : int;      (** going-down hook invocations — at
                                        most one per connection *)
}

type t = {
  mutable ep : Chan.endpoint;
  mutable seq : int;
  base_deadline : int;   (** pump deadline of the first attempt *)
  max_retries : int;     (** re-sends after the initial attempt *)
  stats : stats;
  mutable on_down : ([ `Deliberate | `Lost ] -> unit) option;
      (** fired once per connection as the link goes down — [`Deliberate]
          on a kill/detach shutdown, [`Lost] when an RPC finds the link
          dead.  The debugger hooks this to grab a core dump on the way
          down while the channel still works. *)
  mutable down_done : bool;
  memo : (char * int * int, Proto.reply) Hashtbl.t;
      (** [Fetched] replies at this stop, keyed by (space, addr, size) *)
}

(** Entries the fetch memo holds before it is emptied and refilled.  A
    stop's working set is its context block plus a few words per frame
    (ldbbench's 22-frame backtrace fetches about 25 distinct words), so
    256 entries cover a deep stop with its locals.  An entry is at most
    {!Proto.max_transfer} bytes plus its key, so a full memo is about
    25 KB and a hundred sessions' memos stay within a few megabytes.  A
    larger working set, such as an array printed whole, empties the
    memo and starts over. *)
let memo_bound = 256

let make ?(deadline = 8) ?(max_retries = 4) (ep : Chan.endpoint) : t =
  {
    ep;
    seq = 0;
    base_deadline = max 1 deadline;
    max_retries = max 0 max_retries;
    stats =
      { st_rpcs = 0; st_replies = 0; st_retries = 0; st_corrupt = 0; st_timeouts = 0;
        st_stale = 0; st_reconnects = 0; st_down_fires = 0 };
    on_down = None;
    down_done = false;
    memo = Hashtbl.create 64;
  }

let stats t = t.stats
let endpoint t = t.ep

(** Install (or clear) the going-down hook.  The hook is guaranteed to
    fire {e at most once per connection}, no matter how the link dies or
    how many observers notice: a deliberate kill followed by an RPC that
    detects the same link as lost runs it only for the kill — the session
    must not, e.g., record two core dumps for one dead target.  Swapping
    the hook after the link already went down does {e not} re-arm it;
    only {!reconnect} (a genuinely new connection) does. *)
let set_on_down t f = t.on_down <- f

(** Run the going-down hook, at most once per connection.  [down_done] is
    set {e before} the hook runs, so an RPC the hook itself issues cannot
    re-enter it when that RPC also finds the link dead. *)
let fire_down t reason =
  if not t.down_done then begin
    t.down_done <- true;
    t.stats.st_down_fires <- t.stats.st_down_fires + 1;
    match t.on_down with
    | Some f -> ( try f reason with _ -> ())
    | None -> ()
  end

(** Whether the going-down hook has already run for this connection. *)
let down_fired t = t.down_done

(** Swap in a fresh endpoint after the old link died.  Sequence numbers
    restart — the nub resets its duplicate-detection state on attach. *)
let reconnect (t : t) (ep : Chan.endpoint) : unit =
  t.ep <- ep;
  t.seq <- 0;
  t.down_done <- false;
  Hashtbl.clear t.memo;
  t.stats.st_reconnects <- t.stats.st_reconnects + 1

(** Send [req] as a frame and wait for its reply, retrying with
    exponential deadline backoff on damage or silence. *)
let send_rpc ?deadline ?max_retries (t : t) (req : Proto.request) : Proto.reply =
  let base_deadline = match deadline with Some d -> max 1 d | None -> t.base_deadline in
  let max_retries = match max_retries with Some r -> max 0 r | None -> t.max_retries in
  t.stats.st_rpcs <- t.stats.st_rpcs + 1;
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let payload = Proto.encode_request req in
  let describe () = Fmt.str "%a (seq %d)" Proto.pp_request req seq in
  (* await a reply numbered [seq]; anything older is a stale duplicate *)
  let await deadline =
    let rec go () =
      match Frame.recv ~deadline t.ep with
      | Ok f when f.Frame.fr_seq = seq -> (
          match Proto.decode_reply f.Frame.fr_payload with
          | Ok r -> `Reply r
          | Error m ->
              t.stats.st_corrupt <- t.stats.st_corrupt + 1;
              `Failed (Corrupt, m))
      | Ok f when f.Frame.fr_seq < seq ->
          t.stats.st_stale <- t.stats.st_stale + 1;
          go ()
      | Ok f -> `Failed (Corrupt, Fmt.str "reply from the future (seq %d)" f.Frame.fr_seq)
      | Error m ->
          t.stats.st_corrupt <- t.stats.st_corrupt + 1;
          `Failed (Corrupt, m)
      | exception Chan.Timeout ->
          t.stats.st_timeouts <- t.stats.st_timeouts + 1;
          `Failed (Timeout, "no reply")
      | exception Chan.Disconnected -> `Disconnected
    in
    go ()
  in
  let rec attempt k last =
    if k > max_retries then
      let kind, m = last in
      error kind "%s after %d attempts: %s" (describe ()) (k) m
    else begin
      if k > 0 then t.stats.st_retries <- t.stats.st_retries + 1;
      match Frame.send t.ep ~seq payload with
      | exception Chan.Disconnected ->
          fire_down t `Lost;
          error Disconnected "%s: link down" (describe ())
      | () -> (
          match await (base_deadline * (1 lsl k)) with
          | `Reply r ->
              t.stats.st_replies <- t.stats.st_replies + 1;
              r
          | `Disconnected ->
              fire_down t `Lost;
              error Disconnected "%s: link down" (describe ())
          | `Failed (kind, m) -> attempt (k + 1) (kind, m))
    end
  in
  attempt 0 (Timeout, "no reply")

(** Issue [req] and wait for its reply, retrying with exponential
    deadline backoff on damage or silence.  Raises {!Error}.

    [?deadline] and [?max_retries] override the transport's defaults for
    this one call — heartbeat probes want to fail fast rather than ride
    the full recovery policy.

    A repeated [Fetch] is answered from the memo without a frame;
    every other request except [Hello] empties the memo first. *)
let rpc ?deadline ?max_retries (t : t) (req : Proto.request) : Proto.reply =
  match req with
  | Proto.Fetch { space; addr; size } -> (
      (* a stopped target changes only through requests on this
         transport, so the same fetch at the same stop has the same
         answer; [Nub_error]s are not kept *)
      let key = (space, addr, size) in
      match Hashtbl.find_opt t.memo key with
      | Some r -> r
      | None ->
          let r = send_rpc ?deadline ?max_retries t req in
          (match r with
          | Proto.Fetched _ ->
              if Hashtbl.length t.memo >= memo_bound then Hashtbl.clear t.memo;
              Hashtbl.replace t.memo key r
          | _ -> ());
          r)
  | Proto.Hello -> send_rpc ?deadline ?max_retries t req
  | _ ->
      Hashtbl.clear t.memo;
      send_rpc ?deadline ?max_retries t req

(** Send a request that has no reply ([Kill], [Detach]).  A dead link is
    ignored: the nub is unreachable, and both requests are about letting
    the target go. *)
let send_oneway (t : t) (req : Proto.request) : unit =
  Hashtbl.clear t.memo;
  t.stats.st_rpcs <- t.stats.st_rpcs + 1;
  t.seq <- t.seq + 1;
  try Frame.send t.ep ~seq:t.seq (Proto.encode_request req)
  with Chan.Disconnected -> ()

(** Deliberately take the link down with a final one-way [req] (Kill or
    Detach).  The going-down hook runs {e first}, while the link still
    answers — its last chance to pull a core dump across.  [disconnect]
    also closes the local endpoint. *)
let shutdown ?(disconnect = false) (t : t) (req : Proto.request) : unit =
  fire_down t `Deliberate;
  send_oneway t req;
  if disconnect then Chan.disconnect t.ep
