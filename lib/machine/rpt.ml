(** The SIM-MIPS runtime procedure table (Sec. 4.3).

    The real MIPS has no frame pointer, so ldb's MIPS linker interface reads
    procedure addresses and frame sizes from a runtime procedure table kept
    in the target's address space.  Our linker emits the same structure:
    at a well-known data address, a word count N followed by N records of
    three 32-bit words: [proc address; frame size; return-address save
    offset from the incoming sp]. *)

let base = Ram.Layout.data_base + 0x8000
let record_words = 3

type entry = { addr : int; frame_size : int; ra_offset : int }

let write ram (entries : entry list) =
  Ram.set_u32 ram base (Int32.of_int (List.length entries));
  List.iteri
    (fun i e ->
      let off = base + 4 + (4 * record_words * i) in
      Ram.set_u32 ram off (Int32.of_int e.addr);
      Ram.set_u32 ram (off + 4) (Int32.of_int e.frame_size);
      Ram.set_u32 ram (off + 8) (Int32.of_int e.ra_offset))
    entries

(** Most records a table may claim. *)
let max_entries = 65536

(** Read the table back through an arbitrary 32-bit fetch function, so the
    debugger can read it through its abstract-memory stack exactly as the
    paper's ldb does ("from the runtime procedure table located in the
    target address space").  An absurd count is an error, not an empty
    table: an empty one would leave every frame's size unknown. *)
let read (fetch32 : int -> int32) : (entry list, string) result =
  let n = Int32.to_int (fetch32 base) in
  if n < 0 || n > max_entries then
    Error
      (Printf.sprintf "runtime procedure table at %#x claims %d entries, outside 0..%d" base
         n max_entries)
  else
    Ok
      (List.init n (fun i ->
           let off = base + 4 + (4 * record_words * i) in
           {
             addr = Int32.to_int (fetch32 off);
             frame_size = Int32.to_int (fetch32 (off + 4));
             ra_offset = Int32.to_int (fetch32 (off + 8));
           }))

(** The table indexed for {!find}: sorted by address, and of several
    entries at one address only the first kept. *)
let index (entries : entry list) : entry array =
  List.stable_sort (fun a b -> compare a.addr b.addr) entries
  |> List.fold_left
       (fun acc e -> match acc with p :: _ when p.addr = e.addr -> acc | _ -> e :: acc)
       []
  |> List.rev |> Array.of_list

(** Find the entry governing [pc] in an {!index}ed table: the entry with
    the greatest address not exceeding [pc] (binary search). *)
let find (idx : entry array) ~pc =
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if idx.(mid).addr <= pc then search (mid + 1) hi (Some idx.(mid))
      else search lo (mid - 1) best
  in
  search 0 (Array.length idx - 1) None
