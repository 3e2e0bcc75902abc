(** Byte-addressable memory for a simulated target process.

    The address space is flat; accesses outside it raise {!Fault}, which the
    CPU turns into a SIGSEGV for the process.  All multi-byte accesses honour
    the owning architecture's byte order.

    Storage is paged: every page starts as one shared zero page that is
    never written, and a store gives its page private storage first.  A
    fresh address space therefore costs one small array, and scanning or
    rebuilding a process costs the pages it touched, not the whole address
    space.  An access inside one page goes straight to that page and
    allocates nothing; only accesses that straddle a page boundary take
    the byte-at-a-time path. *)

open Ldb_util

exception Fault of int  (** bad address *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Shared by every page nobody has stored to.  Never written. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  pages : Bytes.t array;
  size : int;
  order : Endian.order;
  scratch : Bytes.t;  (** assembles values that straddle a page boundary *)
}

(** Standard layout of a simulated process image.  The nub's context area
    lives in high data memory; the stack grows down from [stack_top]. *)
module Layout = struct
  let code_base = 0x1000
  let data_base = 0x100000
  let context_base = 0x1f0000
  let sysarg_base = 0x1f8000 (* simulated-kernel argument block *)
  let stack_top = 0x3ffff0
  let size = 0x400000
end

let create ?(size = Layout.size) order =
  { pages = Array.make ((size + page_mask) lsr page_bits) zero_page; size; order;
    scratch = Bytes.create 8 }

let size m = m.size
let order m = m.order

let check m addr len =
  if addr < 0 || len < 0 || addr + len > m.size then raise (Fault addr)

let page m addr = Array.unsafe_get m.pages (addr lsr page_bits)

(** The page holding [addr], made private on its first store. *)
let wpage m addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get m.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    m.pages.(i) <- p;
    p
  end

(* Does [\[addr, addr+len)] lie inside one page? *)
let in_page addr len = addr land page_mask <= page_size - len

(* Straddling accesses go through [scratch], one byte at a time. *)
let gather m addr len =
  for i = 0 to len - 1 do
    let a = addr + i in
    Bytes.unsafe_set m.scratch i (Bytes.unsafe_get (page m a) (a land page_mask))
  done;
  m.scratch

let scatter m addr len =
  for i = 0 to len - 1 do
    let a = addr + i in
    Bytes.unsafe_set (wpage m a) (a land page_mask) (Bytes.unsafe_get m.scratch i)
  done

let get_u8 m addr =
  check m addr 1;
  Endian.get_u8 (page m addr) (addr land page_mask)

let set_u8 m addr v =
  check m addr 1;
  Endian.set_u8 (wpage m addr) (addr land page_mask) v

let get_u16 m addr =
  check m addr 2;
  if in_page addr 2 then Endian.get_u16 m.order (page m addr) (addr land page_mask)
  else Endian.get_u16 m.order (gather m addr 2) 0

let set_u16 m addr v =
  check m addr 2;
  if in_page addr 2 then Endian.set_u16 m.order (wpage m addr) (addr land page_mask) v
  else begin
    Endian.set_u16 m.order m.scratch 0 v;
    scatter m addr 2
  end

let get_u32 m addr =
  check m addr 4;
  if in_page addr 4 then Endian.get_u32 m.order (page m addr) (addr land page_mask)
  else Endian.get_u32 m.order (gather m addr 4) 0

let set_u32 m addr v =
  check m addr 4;
  if in_page addr 4 then Endian.set_u32 m.order (wpage m addr) (addr land page_mask) v
  else begin
    Endian.set_u32 m.order m.scratch 0 v;
    scatter m addr 4
  end

let get_u64 m addr =
  check m addr 8;
  if in_page addr 8 then Endian.get_u64 m.order (page m addr) (addr land page_mask)
  else Endian.get_u64 m.order (gather m addr 8) 0

let set_u64 m addr v =
  check m addr 8;
  if in_page addr 8 then Endian.set_u64 m.order (wpage m addr) (addr land page_mask) v
  else begin
    Endian.set_u64 m.order m.scratch 0 v;
    scatter m addr 8
  end

(** The four bytes at [addr] as one little-endian int, whatever the
    memory's byte order: the CPU compares code bytes with it.  Allocates
    nothing; the caller has checked that [\[addr, addr+4)] is in range. *)
let raw32 m addr =
  if in_page addr 4 then Int32.to_int (Bytes.get_int32_le (page m addr) (addr land page_mask))
  else begin
    let v = ref 0 in
    for i = 3 downto 0 do
      let a = addr + i in
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get (page m a) (a land page_mask))
    done;
    Int32.to_int (Int32.of_int !v)
  end

(** Raw byte-string accessors, used to load program images and to service
    nub fetch requests.  Both walk the range a page at a time. *)
let blit_in m ~addr (s : string) =
  let len = String.length s in
  check m addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_size - off) in
    Bytes.blit_string s !pos (wpage m a) off n;
    pos := !pos + n
  done

let read_string m ~addr ~len =
  check m addr len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_size - off) in
    Bytes.blit (page m a) off out !pos n;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string out

(* The first nonzero offset of page [p] in [\[i, j)], or [j]; zero words
   are skipped eight bytes at a time. *)
let first_nonzero p i j =
  let i = ref i in
  while !i + 8 <= j && Bytes.get_int64_ne p !i = 0L do i := !i + 8 done;
  while !i < j && Bytes.get p !i = '\000' do incr i done;
  !i

(* The last nonzero offset of page [p] in [\[i, j)], or [i - 1]. *)
let last_nonzero p i j =
  let j = ref j in
  while !j - 8 >= i && Bytes.get_int64_ne p (!j - 8) = 0L do j := !j - 8 done;
  while !j > i && Bytes.get p (!j - 1) = '\000' do decr j done;
  !j - 1

(** The first and last nonzero byte addresses in [\[lo, hi)], or [None]
    when the range is all zero.  Pages still sharing the zero page are
    skipped without a look. *)
let nonzero_extent m ~lo ~hi : (int * int) option =
  check m lo (hi - lo);
  (* [a] walks up from [lo], [b] (exclusive) down from [hi], a page at a
     time *)
  let rec up a =
    if a >= hi then None
    else
      let base = a land lnot page_mask in
      let next = min hi (base + page_size) in
      let p = page m a in
      let f = if p == zero_page then next else base + first_nonzero p (a - base) (next - base) in
      if f < next then Some f else up next
  in
  let rec down b =
    let base = (b - 1) land lnot page_mask in
    let from = max lo base - base in
    let p = page m (b - 1) in
    let l = if p == zero_page then -1 else last_nonzero p from (b - base) in
    if l >= from then base + l else down (base + from)
  in
  match up lo with None -> None | Some first -> Some (first, down hi)

(** Read a NUL-terminated C string (bounded at 64k to stay safe on garbage
    pointers). *)
let read_cstring m ~addr =
  let buf = Buffer.create 16 in
  let rec go a n =
    if n > 65536 then Buffer.contents buf
    else
      let c = get_u8 m a in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1) (n + 1)
      end
  in
  go addr 0

(** IEEE single/double stored per the memory's byte order. *)
let get_f32 m addr = Int32.float_of_bits (get_u32 m addr)
let set_f32 m addr v = set_u32 m addr (Int32.bits_of_float v)
let get_f64 m addr = Int64.float_of_bits (get_u64 m addr)
let set_f64 m addr v = set_u64 m addr (Int64.bits_of_float v)
