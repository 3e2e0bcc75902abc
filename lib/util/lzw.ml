(** An LZW codec equivalent in spirit to UNIX [compress(1)], used to
    reproduce the paper's "PostScript symbol tables are ~9x dbx stabs, ~2x
    after compression" measurement (Sec. 7).

    Variable-width codes (9..16 bits).  Encoder and decoder step the same
    width {!schedule} once per code transmitted, so the two sides can never
    disagree about it. *)

let min_bits = 9
let max_bits = 16
let max_entries = 1 lsl max_bits
let first_code = 256

(* The code width schedule.  Each code is as wide as the largest code the
   encoder could have defined when it sent it: [vnext] steps once per code
   on both sides and passes each power of two one code at a time, so the
   width grows by at most one bit per code and the sides never disagree. *)
type schedule = { mutable width : int; mutable vnext : int }

let schedule () = { width = min_bits; vnext = first_code }

let next_width sc =
  if sc.vnext > 1 lsl sc.width then sc.width <- sc.width + 1;
  if sc.vnext < max_entries then sc.vnext <- sc.vnext + 1;
  sc.width

type bitwriter = { out : Buffer.t; mutable acc : int; mutable nbits : int }

let bw_make () = { out = Buffer.create 1024; acc = 0; nbits = 0 }

let bw_put bw code bits =
  bw.acc <- bw.acc lor (code lsl bw.nbits);
  bw.nbits <- bw.nbits + bits;
  while bw.nbits >= 8 do
    Buffer.add_char bw.out (Char.unsafe_chr (bw.acc land 0xff));
    bw.acc <- bw.acc lsr 8;
    bw.nbits <- bw.nbits - 8
  done

let bw_flush bw = if bw.nbits > 0 then Buffer.add_char bw.out (Char.chr (bw.acc land 0xff))

(* The slot of [key] in an open-addressed table of [keys] (a power of two
   in size, never full): where it is, or the empty slot where it goes. *)
let slot (keys : int array) key =
  let mask = Array.length keys - 1 in
  let rec probe i =
    let k = Array.unsafe_get keys i in
    if k = key || k < 0 then i else probe ((i + 1) land mask)
  in
  probe (((key * 0x9e3779b1) lsr 16) land mask)

(** [compress s] returns the LZW-compressed form of [s]. *)
let compress (s : string) : string =
  let n = String.length s in
  if n = 0 then ""
  else begin
    (* The dictionary maps (prefix code, next byte) to a code; both fit one
       int key, [(prefix lsl 8) lor byte], held in an open-addressed table
       that doubles when half full.  No string is built or hashed per
       input byte, and a lookup allocates nothing. *)
    let keys = ref (Array.make 1024 (-1)) and codes = ref (Array.make 1024 0) in
    let grow () =
      let old_keys = !keys and old_codes = !codes in
      keys := Array.make (2 * Array.length old_keys) (-1);
      codes := Array.make (2 * Array.length old_keys) 0;
      Array.iteri
        (fun i k ->
          if k >= 0 then begin
            let j = slot !keys k in
            !keys.(j) <- k;
            !codes.(j) <- old_codes.(i)
          end)
        old_keys
    in
    let bw = bw_make () and sc = schedule () in
    let next_code = ref first_code in
    let emit code = bw_put bw code (next_width sc) in
    (* single bytes are codes 0..255 implicitly *)
    let w = ref (Char.code s.[0]) in
    for i = 1 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      let key = (!w lsl 8) lor c in
      let j = slot !keys key in
      if !keys.(j) = key then w := !codes.(j)
      else begin
        emit !w;
        if !next_code < max_entries then begin
          !keys.(j) <- key;
          !codes.(j) <- !next_code;
          incr next_code;
          if 2 * (!next_code - first_code) >= Array.length !keys then grow ()
        end;
        w := c
      end
    done;
    emit !w;
    bw_flush bw;
    Buffer.contents bw.out
  end

(** [decompress s] inverts {!compress}.  Raises [Invalid_argument] on a
    corrupt stream, or when the output would exceed [max_out] — callers
    decoding untrusted bytes pass the bound they would accept raw, so a
    small hostile stream cannot demand an enormous expansion. *)
let decompress ?(max_out = max_int) (s : string) : string =
  if s = "" then ""
  else begin
    (* Every entry past the single bytes is output already written: the
       previous entry plus the byte after it, [out.[start.(e) .. start.(e)
       + len.(e))].  Decoding copies within the output and never builds an
       entry as a string.  One loop with no closures reads each code and
       writes its entry, so its counters stay in registers. *)
    let n = String.length s in
    let cap = min max_entries (first_code + (n * 8 / min_bits) + 2) in
    let start = Array.make cap 0 and len = Array.make cap 0 in
    let out = ref (Bytes.create (max 16 (min max_out (n * 3)))) in
    let pos = ref 0 and next_code = ref first_code and prev = ref (-1) in
    let acc = ref 0 and nbits = ref 0 and ipos = ref 0 and sc = schedule () in
    let more = ref true in
    while !more do
      let width = next_width sc in
      (* a code is at most 16 bits wide: two more bytes always suffice *)
      if !nbits < width && !ipos < n then begin
        acc := !acc lor (Char.code (String.unsafe_get s !ipos) lsl !nbits);
        nbits := !nbits + 8;
        incr ipos;
        if !nbits < width && !ipos < n then begin
          acc := !acc lor (Char.code (String.unsafe_get s !ipos) lsl !nbits);
          nbits := !nbits + 8;
          incr ipos
        end
      end;
      if !nbits < width then more := false
      else begin
        let c = !acc land ((1 lsl width) - 1) in
        acc := !acc lsr width;
        nbits := !nbits - width;
        if !prev < 0 then (if c >= first_code then invalid_arg "Lzw.decompress")
        else begin
          if c > !next_code then invalid_arg "Lzw.decompress: corrupt stream";
          if !next_code < max_entries then begin
            (* the previous entry, just written, plus this one's first byte *)
            let lp = if !prev < first_code then 1 else len.(!prev) in
            start.(!next_code) <- !pos - lp;
            len.(!next_code) <- lp + 1;
            incr next_code
          end
        end;
        let l = if c < first_code then 1 else len.(c) in
        if !pos + l > max_out then invalid_arg "Lzw.decompress: output over bound";
        if !pos + l > Bytes.length !out then begin
          let bigger = Bytes.create (max (!pos + l) (2 * Bytes.length !out)) in
          Bytes.blit !out 0 bigger 0 !pos;
          out := bigger
        end;
        let o = !out and p = !pos in
        if c < first_code then Bytes.unsafe_set o p (Char.unsafe_chr c)
        else begin
          (* in bounds: [src + l - 1] is at most [p], and [p + l] fits.
             Copied forward, so for the entry defined just now its last
             byte is the first one this copy wrote. *)
          let src = start.(c) in
          for k = 0 to l - 1 do
            Bytes.unsafe_set o (p + k) (Bytes.unsafe_get o (src + k))
          done
        end;
        pos := p + l;
        prev := c
      end
    done;
    Bytes.sub_string !out 0 !pos
  end

(** Compression ratio original/compressed; 1.0 for empty input. *)
let ratio s =
  if s = "" then 1.0
  else float_of_int (String.length s) /. float_of_int (String.length (compress s))
