(** The little-endian byte codec behind every serialized format in the
    tree: the nub protocol, execution traces, core dumps, the server
    wire, binary stabs and condition bytecode.  (Target memory keeps its
    own byte-order layer, {!Endian}: it must speak both orders.)

    Three parts:

    - a {b writer} that appends little-endian fields to a [Buffer.t];
    - a {b cursor} over a string whose only failures are {!Short} (the
      input ended before a field) and {!Hard} (a field holds a value no
      encoder writes).  Each format maps the two onto its own error
      policy: typed [Error]s for the protocols, salvage warnings for
      cores and traces, an exception for stabs;
    - the {b frame codec}: one message per frame,

    {v
      +--------+--------+---------+---------+---------+=============+
      | magic0 | magic1 | seq u32 | len u32 | crc u32 | len payload |
      +--------+--------+---------+---------+---------+=============+
    v}

      where [crc] is the CRC-32 of seq, len and the payload.  A receiver
      {!scan}s its buffer for the next frame and skips garbage with a
      typed {!error}, so one damaged frame cannot poison the stream.  The
      nub link and the server wire are two instances, told apart by
      their magic pairs and payload limits. *)

(* --- writer ----------------------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))
let add_u16 b v = Buffer.add_uint16_le b (v land 0xffff)
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)

(** A u32 length, then the bytes. *)
let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* --- cursor ----------------------------------------------------------------- *)

(** The input ended: field [what] needs [need] bytes, [have] remain. *)
exception Short of { what : string; need : int; have : int }

(** A field holds a value no encoder writes. *)
exception Hard of string

(** Raise {!Hard} with a formatted message. *)
let hard fmt = Printf.ksprintf (fun m -> raise (Hard m)) fmt

type cursor = { src : string; mutable pos : int }

let cursor src = { src; pos = 0 }
let remaining c = String.length c.src - c.pos

let need c n what =
  let have = remaining c in
  if n > have then raise (Short { what; need = n; have })

let u8 c what =
  need c 1 what;
  let v = Char.code (String.unsafe_get c.src c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c what =
  need c 2 what;
  let v = String.get_uint16_le c.src c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_le c.src c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

(** A flag byte written by {!add_bool}. *)
let bool c what =
  match u8 c what with
  | 0 -> false
  | 1 -> true
  | f -> hard "bad %s %d" what f

(** A u32 field holding a signed value (exit statuses, replies). *)
let i32 c what = Int32.to_int (Int32.of_int (u32 c what))

let take c n what =
  if n < 0 then raise (Hard ("negative length for " ^ what));
  need c n what;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

(** A string written by {!add_str}, refused past [limit] bytes before
    anything is allocated for it. *)
let str c ~limit what =
  let n = u32 c what in
  if n > limit then hard "%s of %d bytes over the %d limit" what n limit;
  take c n what

(** [v], provided the cursor consumed its whole input. *)
let finish c v =
  if c.pos <> String.length c.src then raise (Hard "trailing bytes");
  v

(** [f x], with a cursor failure rendered as text. *)
let guard f x =
  try Ok (f x) with
  | Short { what; need; have } ->
      Error (Printf.sprintf "truncated %s: need %d bytes, have %d" what need have)
  | Hard m -> Error m

(** Decode all of [s] with [f]. *)
let decode (f : cursor -> 'a) (s : string) : ('a, string) result =
  guard (fun c -> finish c (f c)) (cursor s)

(* --- frames ----------------------------------------------------------------- *)

(** One instance of the frame codec.  [max_payload] is the sender's
    limit; a receiver may scan with a tighter one. *)
type framing = { magic0 : char; magic1 : char; max_payload : int }

let header_len = 14

(** The magic pair's length: where a header's fields start, and what the
    resync step discards. *)
let magic_len = 2

(** What a damaged or hostile byte stream did.  Every {!scan} failure is
    one of these; [Bad_message] is left to the payload decoders. *)
type error =
  | Garbage of int  (** bytes discarded scanning for the next magic *)
  | Bad_length of { seq : int; claimed : int; limit : int }
      (** a header whose length field cannot be a real frame *)
  | Bad_crc of { seq : int }
  | Bad_message of string  (** a checksum-valid payload that does not decode *)

let error_to_string = function
  | Garbage n -> Printf.sprintf "%d byte%s of garbage before a frame" n
                   (if n = 1 then "" else "s")
  | Bad_length { seq; claimed; limit } ->
      Printf.sprintf "frame %d claims a %d-byte payload (limit %d)" seq claimed limit
  | Bad_crc { seq } -> Printf.sprintf "frame %d fails its checksum" seq
  | Bad_message m -> "undecodable message: " ^ m

(** [v] as 4 little-endian bytes, for messages built by concatenation:
    frame headers and the nub protocol. *)
let u32_le (v : int) =
  let b = Bytes.create 4 in
  Endian.set_u32 Little b 0 (Int32.of_int v);
  Bytes.to_string b

(* Frame headers are built and read through 4-byte copies, not the
   cursor's in-place reads, so a frame costs a fixed amount of work:
   ldbbench's heap_peak_mb grows with the commands a run completes, and
   a cheaper frame waits until that metric stops doing so (ROADMAP). *)
let header_u32 buf pos =
  Int32.to_int (Endian.get_u32 Little (Bytes.of_string (String.sub buf pos 4)) 0)
  land 0xffffffff

(** Wrap [payload] in a frame. *)
let seal (f : framing) ~(seq : int) (payload : string) : string =
  if String.length payload > f.max_payload then invalid_arg "seal: payload too long";
  let head = u32_le seq ^ u32_le (String.length payload) in
  let crc =
    let c = Crc32.update (Crc32.init ()) head ~pos:0 ~len:8 in
    Crc32.finish (Crc32.update c payload ~pos:0 ~len:(String.length payload))
  in
  Printf.sprintf "%c%c" f.magic0 f.magic1 ^ head ^ u32_le crc ^ payload

(** One scanning decision over the front of a receive buffer.  The
    caller consumes exactly what the result says and calls again;
    [S_need] consumes nothing — the frame is merely incomplete so far. *)
type scan =
  | S_frame of { seq : int; payload : string; used : int }
  | S_skip of { skip : int; error : error }
  | S_need

(** Scan [buf] for the next frame of [f].  Total; consumes nothing
    itself.  [max_payload] (default [f.max_payload]) is the receiver's
    trust bound on a length field. *)
let scan (f : framing) ?(max_payload = f.max_payload) (buf : string) : scan =
  let avail = String.length buf in
  (* garbage in front of the next possible magic is skipped, typed *)
  let rec find i =
    if i >= avail then avail
    else if buf.[i] = f.magic0 && (i + 1 >= avail || buf.[i + 1] = f.magic1) then i
    else find (i + 1)
  in
  let start = find 0 in
  if start > 0 then S_skip { skip = start; error = Garbage start }
  else if avail < header_len then S_need
  else
    let seq = header_u32 buf magic_len in
    let len = header_u32 buf (magic_len + 4) in
    let crc = header_u32 buf (magic_len + 8) in
    if len > max_payload then
      (* a corrupted (or hostile) length field: skip the magic and let
         the scanner resynchronize on whatever follows *)
      S_skip { skip = magic_len; error = Bad_length { seq; claimed = len; limit = max_payload } }
    else if avail < header_len + len then S_need
    else
      let check =
        let c = Crc32.update (Crc32.init ()) buf ~pos:magic_len ~len:8 in
        Crc32.finish (Crc32.update c buf ~pos:header_len ~len)
      in
      if check <> crc then
        (* the length field itself may be lying; consume only the magic
           so a genuine frame inside the claimed span is recovered *)
        S_skip { skip = magic_len; error = Bad_crc { seq } }
      else S_frame { seq; payload = String.sub buf header_len len; used = header_len + len }

(** The resync step a receiver applies when buffered bytes stall as a
    forever-incomplete frame (a torn frame's lying header promising a
    payload that will never arrive): discard the presumed magic and
    rescan.  Anything genuine behind the lie is recovered. *)
let resync (buf : string) : string =
  let n = min magic_len (String.length buf) in
  String.sub buf n (String.length buf - n)
