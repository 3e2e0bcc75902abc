(** Length-prefixed, checksummed, sequence-numbered frames over {!Chan}.

    The raw protocol ({!Proto}) is a stream of opcode-prefixed messages;
    a single flipped bit in a length byte used to desynchronize the
    stream forever, and truncation was indistinguishable from a slow
    peer.  Every message therefore travels inside a frame of the shared
    frame codec ({!Ldb_util.Bytecodec}), the nub's instance with magic
    [0xF5 0xDB]: a CRC-32 over seq, len and payload detects damage, and a
    receiver that finds garbage scans forward for the next magic, so one
    damaged frame can never poison the rest of the stream.  [seq]
    implements at-most-once request semantics: the debugger retries a
    lost request under the same sequence number, the nub caches its last
    reply and retransmits it instead of re-executing (re-running a
    [Continue] would skip a breakpoint), and stale duplicate replies are
    discarded by number.

    This module is the {!Chan} glue.  [try_recv] never blocks and
    consumes bytes only when it can make a definite decision, so a frame
    that is merely {e incomplete} stays buffered until its remaining
    bytes (or the retry that follows them) arrive. *)

open Ldb_util

(** The nub's frame codec.  Protocol messages are tiny (the largest is
    an error string); a frame claiming more is a corrupted length field,
    and treating it as garbage keeps a bit-flip from stalling the stream
    while the receiver waits for megabytes that will never come. *)
let codec = { Bytecodec.magic0 = '\xf5'; magic1 = '\xdb'; max_payload = Proto.max_string + 64 }

let header_len = Bytecodec.header_len

type frame = { fr_seq : int; fr_payload : string }

(** Wrap [payload] in a frame. *)
let seal ~seq payload = Bytecodec.seal codec ~seq payload

let send (ep : Chan.endpoint) ~(seq : int) (payload : string) : unit =
  Chan.send ep (seal ~seq payload)

type recv_status =
  [ `Frame of frame  (** a complete, checksum-valid frame was consumed *)
  | `Corrupt of string
    (** damaged bytes were found and (partially) discarded; calling again
        resumes scanning for the next frame *)
  | `Incomplete
    (** not enough bytes buffered for a decision; nothing was consumed
        beyond leading garbage *) ]

(** Non-blocking receive over whatever is buffered. *)
let rec try_recv (ep : Chan.endpoint) : recv_status =
  let avail = Chan.available ep in
  if avail = 0 then `Incomplete
  else
    match Bytecodec.scan codec (Chan.peek ep avail) with
    | Bytecodec.S_need -> `Incomplete
    | Bytecodec.S_frame { seq; payload; used } ->
        Chan.skip ep used;
        `Frame { fr_seq = seq; fr_payload = payload }
    | Bytecodec.S_skip { skip; error = Bytecodec.Garbage _ } ->
        Chan.skip ep skip;
        try_recv ep
    | Bytecodec.S_skip { skip; error } ->
        Chan.skip ep skip;
        `Corrupt (Bytecodec.error_to_string error)

(** Blocking receive: pump the peer until a frame (or damage) shows up.
    Returns [Error] on a corrupt frame so the caller can retry the
    request.  Raises {!Chan.Timeout} after [deadline] (default 8)
    consecutive unproductive pumps on a live link, and
    {!Chan.Disconnected} when the link is down and the buffered bytes
    cannot form a frame. *)
let recv ?(deadline = 8) (ep : Chan.endpoint) : (frame, string) result =
  let stalled = ref 0 in
  let rec loop () =
    match try_recv ep with
    | `Frame f -> Ok f
    | `Corrupt m -> Error m
    | `Incomplete ->
        if not (Chan.is_connected ep) then raise Chan.Disconnected;
        let before = Chan.available ep in
        (Chan.pump_of ep) ();
        if Chan.available ep = before then begin
          incr stalled;
          if !stalled > deadline then
            if before > 0 then begin
              (* bytes are buffered but never complete a frame: a
                 corrupted length field is promising a payload that will
                 not come.  Resync past the lying header's magic —
                 anything genuine behind it is recovered. *)
              Chan.skip ep Bytecodec.magic_len;
              stalled := 0
            end
            else if Chan.is_connected ep then raise Chan.Timeout
            else raise Chan.Disconnected
        end
        else stalled := 0;
        loop ()
  in
  loop ()
