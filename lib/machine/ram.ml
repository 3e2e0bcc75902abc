(** Byte-addressable memory for a simulated target process.

    The address space is flat; accesses outside it raise {!Fault}, which the
    CPU turns into a SIGSEGV for the process.  All multi-byte accesses honour
    the owning architecture's byte order.

    Storage is paged, and pages are shared until written: a memory copies
    any page it does not own before its first store to it.  A fresh
    address space starts with every page the one zero page, which nobody
    owns, and {!clone} gives a second memory all of another's pages, which
    then neither owns; so a program loader can build an image's code and
    data pages once and hand them to every process it launches, each
    process paying only for the pages it writes.  A fresh or cloned
    address space therefore costs a page table and a byte per page, and
    scanning or rebuilding a process costs the pages it touched, not the
    whole address space.  An access inside one page goes straight to that
    page and allocates nothing; only accesses that straddle a page boundary
    take the byte-at-a-time path. *)

open Ldb_util

exception Fault of int  (** bad address *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Shared by every page nobody has stored to.  Nobody owns it, so it is
   never written. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  pages : Bytes.t array;
  owned : Bytes.t;
      (** one flag per page, nonzero once the page is this memory's own
          copy.  Kept apart from the pages: a flag byte after each page's
          data made pages 4097 bytes long, and the simulated CPU 3% slower
          on a store-heavy loop. *)
  mutable mapped : int list;  (** the pages that are not the zero page *)
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
  let n = (size + page_mask) lsr page_bits in
  { pages = Array.make n zero_page; owned = Bytes.make n '\000'; mapped = []; size; order;
    scratch = Bytes.create 8 }

(** A memory with [m]'s contents that shares every page with it.  From
    here on neither owns a page the other can see: each copies a page
    before its next store to it, so neither sees the other's stores.
    Costs a fresh memory plus one slot per page [m] has written, not a
    copy of the whole page table. *)
let clone m =
  let n = Array.length m.pages in
  let pages = Array.make n zero_page in
  List.iter (fun i -> Array.unsafe_set pages i (Array.unsafe_get m.pages i)) m.mapped;
  Bytes.fill m.owned 0 n '\000';
  { m with pages; owned = Bytes.make n '\000'; scratch = Bytes.create 8 }

let size m = m.size
let order m = m.order

let check m addr len =
  if addr < 0 || len < 0 || addr + len > m.size then raise (Fault addr)

let page m addr = Array.unsafe_get m.pages (addr lsr page_bits)

(* Page [i], copied into this memory's own. *)
let own_page m i =
  let shared = Array.unsafe_get m.pages i in
  if shared == zero_page then m.mapped <- i :: m.mapped;
  let own = Bytes.copy shared in
  Array.unsafe_set m.pages i own;
  Bytes.unsafe_set m.owned i '\001';
  own

(** The page holding [addr], copied into this memory's own before its
    first store.  Inlined into every store, with the copy out of line:
    as one function with the copy inside, the ownership check made the
    simulated CPU 2% slower than the zero-page check it replaced. *)
let[@inline] wpage m addr =
  let i = addr lsr page_bits in
  if Bytes.unsafe_get m.owned i <> '\000' then Array.unsafe_get m.pages i else own_page m i

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

(** [get_u32] as an int from 0 to 2{^32}-1, with no [int32] boxed. *)
let get_u32_int m addr =
  check m addr 4;
  let inside = in_page addr 4 in
  let b = if inside then page m addr else gather m addr 4 in
  let o = if inside then addr land page_mask else 0 in
  let b0 = Char.code (Bytes.unsafe_get b o)
  and b1 = Char.code (Bytes.unsafe_get b (o + 1))
  and b2 = Char.code (Bytes.unsafe_get b (o + 2))
  and b3 = Char.code (Bytes.unsafe_get b (o + 3)) in
  match m.order with
  | Endian.Little -> b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  | Endian.Big -> b3 lor (b2 lsl 8) lor (b1 lsl 16) lor (b0 lsl 24)

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
