(** Byte-order primitives shared by the machine simulators, the nub wire
    protocol, and the abstract-memory layer.

    All multi-byte accessors operate on [Bytes.t] at a byte offset and never
    allocate.  Values are carried as [int32]/[int64] so that 32-bit target
    words are exact regardless of the host word size. *)

type order = Little | Big

(* 8-bit *)

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

(* 16-bit *)

let get_u16 order b off =
  let b0 = get_u8 b off and b1 = get_u8 b (off + 1) in
  match order with
  | Little -> b0 lor (b1 lsl 8)
  | Big -> b1 lor (b0 lsl 8)

let set_u16 order b off v =
  let lo = v land 0xff and hi = (v lsr 8) land 0xff in
  match order with
  | Little ->
      set_u8 b off lo;
      set_u8 b (off + 1) hi
  | Big ->
      set_u8 b off hi;
      set_u8 b (off + 1) lo

(* 32-bit *)

let get_u32 order b off =
  let byte i = Int32.of_int (get_u8 b (off + i)) in
  let combine b0 b1 b2 b3 =
    let ( <| ) x s = Int32.shift_left x s and ( || ) = Int32.logor in
    b0 || (b1 <| 8) || (b2 <| 16) || (b3 <| 24)
  in
  match order with
  | Little -> combine (byte 0) (byte 1) (byte 2) (byte 3)
  | Big -> combine (byte 3) (byte 2) (byte 1) (byte 0)

let set_u32 order b off (v : int32) =
  let byte i = Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * i)) 0xffl) in
  match order with
  | Little ->
      for i = 0 to 3 do
        set_u8 b (off + i) (byte i)
      done
  | Big ->
      for i = 0 to 3 do
        set_u8 b (off + i) (byte (3 - i))
      done

(* 64-bit, used for doubles travelling over the wire *)

let get_u64 order b off =
  let byte i = Int64.of_int (get_u8 b (off + i)) in
  let acc = ref 0L in
  (match order with
  | Little ->
      for i = 7 downto 0 do
        acc := Int64.logor (Int64.shift_left !acc 8) (byte i)
      done
  | Big ->
      for i = 0 to 7 do
        acc := Int64.logor (Int64.shift_left !acc 8) (byte i)
      done);
  !acc

let set_u64 order b off (v : int64) =
  let byte i = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL) in
  match order with
  | Little ->
      for i = 0 to 7 do
        set_u8 b (off + i) (byte i)
      done
  | Big ->
      for i = 0 to 7 do
        set_u8 b (off + i) (byte (7 - i))
      done

(** Sign-extend the low [bits] bits of [v]. *)
let sext v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(** Truncate a host int to an unsigned [bits]-bit value. *)
let trunc v bits = v land ((1 lsl bits) - 1)
