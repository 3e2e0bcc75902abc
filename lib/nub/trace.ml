(** Execution traces for record/replay time travel.

    Our simulated targets are deterministic: the only nondeterminism a
    debugging session can observe enters through the debugger itself —
    stores into target memory, verified condition programs, continues and
    steps, and the kill switch.  A trace therefore logs exactly the
    state-changing requests the nub served, the outcome of every
    execution request (the stop or exit it ended in, with the retired
    instruction count), and periodic {e checkpoints}.  A checkpoint is an
    [LDBCORE1] dump (see {!Ldb_machine.Core}) plus a {e replay cursor}
    [(ev, delta)]: the index of the next state-changing request and, for
    a cursor inside a continue, how many instructions of that continue
    had retired when the dump was taken.  Restoring the dump and
    re-applying the logged requests from the cursor reproduces the
    machine state at any historical instant, bit for bit.

    The format is framed like the core codec: a magic string, a small
    header, then self-delimiting records each protected by a CRC-32.
    Decoding is {e total} and degrades the way {!Ldb_machine.Core}
    does: header damage is a hard error, but a truncated or corrupted
    record merely ends the usable prefix of the trace with a typed
    {!salvage} warning — replay over the surviving prefix is still
    sound because every prefix of a trace is itself a valid trace.

    Nothing in a trace depends on wall-clock time, allocation order, or
    any other ambient state, so recording the same session twice yields
    byte-identical files — the CI determinism gate relies on this. *)

open Ldb_util
open Ldb_machine
open Bytecodec

(** How a checkpointed machine was executing when it was dumped. *)
type ck_status =
  | Ck_running  (** mid-continue: resume executing to go forward *)
  | Ck_stopped of { signal : int; code : int }
  | Ck_exited of int

(** How a checkpoint holds its dump. *)
type packing =
  | Fresh  (** raw, as captured: the encoder compresses it if that is smaller *)
  | Raw  (** raw, as read from a trace *)
  | Lzw  (** LZW-compressed, as read from a trace *)

type checkpoint = {
  ck_ev : int;
      (** index of the next state-changing request not yet (fully)
          applied at the moment of the dump *)
  ck_delta : int;
      (** instructions of request [ck_ev]'s execution already retired
          (nonzero only inside a continue) *)
  ck_status : ck_status;
  ck_stored : string;
      (** the serialized [LDBCORE1] dump, packed as [ck_packing] says;
          {!checkpoint_core} reads it *)
  ck_packing : packing;
}

type event =
  | Req of Proto.request
      (** a state-changing request the nub applied, in arrival order *)
  | Stop of { signal : int; code : int; pc : int; instrs : int }
      (** the preceding continue/step ended in this stop after [instrs]
          counted instruction units *)
  | Exit of { status : int; instrs : int }
  | Checkpoint of checkpoint
      (** appears in stream order, between the events it separates *)

type t = {
  tr_arch : Arch.t;
  tr_fuel : int;      (** the recording nub's per-continue budget *)
  tr_can_step : bool;
  tr_spacing : int;   (** requested instructions between checkpoints *)
  tr_events : event list;
}

(** Typed degradation for damaged traces, in the style of
    {!Ldb_machine.Core.salvage}: the decoder never raises, it reports. *)
type salvage =
  | Truncated of { what : string; expected : int; got : int }
  | Bad_crc of { index : int; stored : int; computed : int }
  | Bad_record of { index : int; what : string }

let salvage_to_string = function
  | Truncated { what; expected; got } ->
      Printf.sprintf "trace truncated in %s: need %d bytes, have %d" what expected got
  | Bad_crc { index; stored; computed } ->
      Printf.sprintf "trace record %d checksum mismatch: stored %#x, computed %#x"
        index stored computed
  | Bad_record { index; what } ->
      Printf.sprintf "trace record %d malformed: %s" index what

(* --- codec -------------------------------------------------------------- *)

(* Layout (all integers little-endian u32 unless noted):
     "LDBTRACE2"
     u32 len + arch name bytes
     u32 fuel | u32 spacing | u8 step flag ('S'/'-')
     then records until end of string, each:
       u8 tag | u32 body length | body bytes | u32 CRC-32(body)
     tags and bodies:
       'Q'  encoded Proto.request
       'S'  u32 signal | u32 code | u32 pc | u32 instrs
       'X'  u32 status | u32 instrs
       'C'  u32 ev | u32 delta | u8 kind | u32 a | u32 b
            | u8 comp | u32 stored length | stored bytes
            (kind 'r': running, a=b=0; 's': a=signal b=code; 'x': a=status;
             comp 'L': stored bytes are the LZW-compressed core,
             comp 'R': stored bytes are the raw core — the encoder picks
             whichever is smaller and writes a decoded checkpoint's
             stored bytes back as they were read)
   Version 1 ("LDBTRACE1") is identical except that its 'C' body has no
   compression flag: after kind/a/b comes the raw core length directly.
   The decoder keys on the magic and accepts both; the encoder always
   writes version 2. *)

let magic = "LDBTRACE2"
let magic_v1 = "LDBTRACE1"

(** A checkpoint body is dominated by its core dump; bounded like the
    core codec's section limit so a corrupt length cannot demand an
    absurd allocation. *)
let max_core_bytes = 1 lsl 26

let max_record_bytes = max_core_bytes + 4096

(** A checkpoint's [LDBCORE1] dump: the one place a trace decompresses,
    so a trace opens without decoding the checkpoints replay never
    restores.  Bounded: a CRC-valid but hostile stream must not expand
    past what we would accept as a raw core. *)
let checkpoint_core (ck : checkpoint) : (string, string) result =
  match ck.ck_packing with
  | Fresh | Raw -> Ok ck.ck_stored
  | Lzw -> (
      try Ok (Lzw.decompress ~max_out:max_core_bytes ck.ck_stored)
      with Invalid_argument m -> Error ("compressed core: " ^ m))

(** Checkpoint cores dominate a trace's size and compress well (sparse
    dumps are runs of structure); a fresh one is stored LZW-compressed
    when that is actually smaller, raw otherwise, one flag byte
    deciding. *)
let encode_event (e : event) : char * string =
  let b = Buffer.create 64 in
  let tag =
    match e with
    | Req r ->
        Buffer.add_string b (Proto.encode_request r);
        'Q'
    | Stop { signal; code; pc; instrs } ->
        add_u32 b signal;
        add_u32 b code;
        add_u32 b pc;
        add_u32 b instrs;
        'S'
    | Exit { status; instrs } ->
        add_u32 b status;
        add_u32 b instrs;
        'X'
    | Checkpoint ck ->
        add_u32 b ck.ck_ev;
        add_u32 b ck.ck_delta;
        (match ck.ck_status with
        | Ck_running ->
            Buffer.add_char b 'r';
            add_u32 b 0;
            add_u32 b 0
        | Ck_stopped { signal; code } ->
            Buffer.add_char b 's';
            add_u32 b signal;
            add_u32 b code
        | Ck_exited status ->
            Buffer.add_char b 'x';
            add_u32 b status;
            add_u32 b 0);
        let flag, stored =
          match ck.ck_packing with
          | Raw -> ('R', ck.ck_stored)
          | Lzw -> ('L', ck.ck_stored)
          | Fresh ->
              let packed = Lzw.compress ck.ck_stored in
              if String.length packed < String.length ck.ck_stored then ('L', packed)
              else ('R', ck.ck_stored)
        in
        Buffer.add_char b flag;
        add_str b stored;
        'C'
  in
  (tag, Buffer.contents b)

(** Append [tr]'s header (not its events) to [b]. *)
let add_header b (tr : t) =
  Buffer.add_string b magic;
  add_str b (Arch.name tr.tr_arch);
  add_u32 b tr.tr_fuel;
  add_u32 b tr.tr_spacing;
  Buffer.add_char b (if tr.tr_can_step then 'S' else '-')

(** Append one event's record to [b]: a trace is its header followed by
    its events' records, so a recorder can encode each event once. *)
let add_event b (e : event) =
  let tag, body = encode_event e in
  Buffer.add_char b tag;
  add_str b body;
  add_u32 b (Crc32.string body)

let to_string (tr : t) : string =
  let b = Buffer.create 4096 in
  add_header b tr;
  List.iter (add_event b) tr.tr_events;
  Buffer.contents b

(* Decoder: header damage is hard, body damage salvages the prefix. *)

let decode_body ~(version : int) (tag : char) (body : string) :
    (event, string) result =
  decode
    (fun c ->
      match tag with
      | 'Q' -> (
          match Proto.decode_request (take c (remaining c) "request") with
          | Ok r -> Req r
          | Error m -> raise (Hard ("bad request: " ^ m)))
      | 'S' ->
          let signal = u32 c "stop signal" in
          let code = u32 c "stop code" in
          let pc = u32 c "stop pc" in
          let instrs = u32 c "stop instrs" in
          Stop { signal; code; pc; instrs }
      | 'X' ->
          let status = i32 c "exit status" in
          let instrs = u32 c "exit instrs" in
          Exit { status; instrs }
      | 'C' ->
          let ck_ev = u32 c "checkpoint ev" in
          let ck_delta = u32 c "checkpoint delta" in
          let kind = Char.chr (u8 c "checkpoint kind") in
          let a = u32 c "checkpoint a" in
          let b = u32 c "checkpoint b" in
          let ck_status =
            match kind with
            | 'r' -> Ck_running
            | 's' -> Ck_stopped { signal = a; code = b }
            | 'x' -> Ck_exited (Int32.to_int (Int32.of_int a))
            | k -> hard "bad checkpoint kind %C" k
          in
          (* v1 checkpoints have no compression flag: the core is raw;
             a compressed one stays compressed until replay restores it *)
          let flag = if version < 2 then 'R' else Char.chr (u8 c "checkpoint compression flag") in
          let ck_packing =
            match flag with
            | 'R' -> Raw
            | 'L' -> Lzw
            | f -> hard "bad compression flag %C" f
          in
          let ck_stored = str c ~limit:max_core_bytes "checkpoint core" in
          Checkpoint { ck_ev; ck_delta; ck_status; ck_stored; ck_packing }
      | t -> hard "unknown record tag %C" t)
    body

(** Decode a trace.  Total: header damage yields [Error]; a damaged or
    truncated record ends the event list there, with the reason as a
    typed {!salvage} alongside the surviving prefix.  Because replay
    only ever consumes a prefix of history, the salvaged trace remains
    fully usable up to the damage point. *)
let of_string : string -> (t * salvage list, string) result =
  guard @@ fun s ->
  let c = cursor s in
  let m = take c (String.length magic) "magic" in
  let version =
    if m = magic then 2
    else if m = magic_v1 then 1
    else raise (Hard "not an LDBTRACE1/LDBTRACE2 trace")
  in
  let arch_name = str c ~limit:256 "arch name" in
  let tr_arch =
    match Arch.of_name arch_name with
    | Some a -> a
    | None -> hard "unknown architecture %S" arch_name
  in
  let tr_fuel = u32 c "fuel" in
  let tr_spacing = u32 c "spacing" in
  if tr_fuel < 1 then raise (Hard "bad fuel");
  if tr_spacing < 1 then raise (Hard "bad spacing");
  let tr_can_step =
    match Char.chr (u8 c "step flag") with
    | 'S' -> true
    | '-' -> false
    | f -> hard "bad step flag %C" f
  in
  let events = ref [] in
  let warns = ref [] in
  let index = ref 0 in
  let stop = ref false in
  (* a salvage ends the stream: indices after damage are unreliable *)
  while not !stop && remaining c > 0 do
    match
      let tag = Char.chr (u8 c "record tag") in
      let body = str c ~limit:max_record_bytes "record body" in
      let crc = u32 c "record checksum" in
      (tag, body, crc)
    with
    | exception Short { what; need; have } ->
        warns := [ Truncated { what; expected = need; got = have } ];
        stop := true
    | exception Hard m ->
        warns := [ Bad_record { index = !index; what = m } ];
        stop := true
    | tag, body, stored ->
        let computed = Crc32.string body in
        if computed <> stored then begin
          warns := [ Bad_crc { index = !index; stored; computed } ];
          stop := true
        end
        else begin
          match decode_body ~version tag body with
          | Ok e ->
              events := e :: !events;
              incr index
          | Error what ->
              warns := [ Bad_record { index = !index; what } ];
              stop := true
        end
  done;
  ( { tr_arch; tr_fuel; tr_spacing; tr_can_step; tr_events = List.rev !events },
    !warns )
