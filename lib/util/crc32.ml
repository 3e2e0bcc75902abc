(** CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.

    Used by the nub transport to detect corruption and truncation of
    frames on the simulated wire: a frame whose payload no longer matches
    its checksum is discarded and retransmitted rather than mis-decoded. *)

let polynomial = 0xedb88320

(* Slicing-by-8: [table.(256*k + b)] is the CRC of byte [b] followed by
   [k] zero bytes, so eight input bytes fold in with eight lookups.  Slice
   0 is the classic byte-at-a-time table. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- t.(c land 0xff) lxor (c lsr 8)
  done;
  t

(** Feed [s.[pos..pos+len)] into a running CRC.  Start from [init ()];
    finish with [finish]. *)
let update (crc : int) (s : string) ~(pos : int) ~(len : int) : int =
  if len > 0 && (pos < 0 || pos + len > String.length s) then invalid_arg "index out of bounds";
  let t k b = Array.unsafe_get table ((k lsl 8) lor b) in
  let byte i = Char.code (String.unsafe_get s i) in
  let crc = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let c =
      !crc lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24))
    in
    crc :=
      t 7 (c land 0xff) lxor t 6 ((c lsr 8) land 0xff) lxor t 5 ((c lsr 16) land 0xff)
      lxor t 4 (c lsr 24) lxor t 3 (byte (j + 4)) lxor t 2 (byte (j + 5))
      lxor t 1 (byte (j + 6)) lxor t 0 (byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    crc := t 0 ((!crc lxor byte !i) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  !crc

let init () = 0xffffffff
let finish crc = crc lxor 0xffffffff land 0xffffffff

(** CRC-32 of a whole string. *)
let string (s : string) : int =
  finish (update (init ()) s ~pos:0 ~len:(String.length s))

(** CRC-32 of a substring. *)
let substring (s : string) ~(pos : int) ~(len : int) : int =
  finish (update (init ()) s ~pos ~len)
