(** An LZW codec equivalent in spirit to UNIX [compress(1)], used to
    reproduce the paper's "PostScript symbol tables are ~9x dbx stabs, ~2x
    after compression" measurement (Sec. 7).

    Variable-width codes (9..16 bits).  Encoder and decoder derive the code
    width from the same counter of codes transmitted, so the two sides can
    never disagree about the width schedule. *)

let min_bits = 9
let max_bits = 16
let max_entries = 1 lsl max_bits
let first_code = 256

(* Width in effect for the [n]-th (1-based) code of the stream: wide enough
   for every code the encoder could possibly send at that point. *)
let width_at n =
  let virtual_next = min (first_code + (n - 1)) max_entries in
  let b = ref min_bits in
  while 1 lsl !b < virtual_next do
    incr b
  done;
  !b

type bitwriter = { out : Buffer.t; mutable acc : int; mutable nbits : int }

let bw_make () = { out = Buffer.create 1024; acc = 0; nbits = 0 }

let bw_put bw code bits =
  bw.acc <- bw.acc lor (code lsl bw.nbits);
  bw.nbits <- bw.nbits + bits;
  while bw.nbits >= 8 do
    Buffer.add_char bw.out (Char.chr (bw.acc land 0xff));
    bw.acc <- bw.acc lsr 8;
    bw.nbits <- bw.nbits - 8
  done

let bw_flush bw = if bw.nbits > 0 then Buffer.add_char bw.out (Char.chr (bw.acc land 0xff))

type bitreader = { src : string; mutable pos : int; mutable racc : int; mutable rbits : int }

let br_make src = { src; pos = 0; racc = 0; rbits = 0 }

let br_get br bits =
  while br.rbits < bits && br.pos < String.length br.src do
    br.racc <- br.racc lor (Char.code br.src.[br.pos] lsl br.rbits);
    br.rbits <- br.rbits + 8;
    br.pos <- br.pos + 1
  done;
  if br.rbits < bits then None
  else begin
    let code = br.racc land ((1 lsl bits) - 1) in
    br.racc <- br.racc lsr bits;
    br.rbits <- br.rbits - bits;
    Some code
  end

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
    let bw = bw_make () in
    let next_code = ref first_code in
    let sent = ref 0 in
    let emit code =
      incr sent;
      bw_put bw code (width_at !sent)
    in
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
       entry as a string. *)
    let cap = min max_entries (first_code + (String.length s * 8 / min_bits) + 2) in
    let start = Array.make cap 0 and len = Array.make cap 0 in
    let length code = if code < first_code then 1 else len.(code) in
    let br = br_make s in
    let next_code = ref first_code in
    let received = ref 0 in
    let read () =
      incr received;
      br_get br (width_at !received)
    in
    let out = ref (Bytes.create (max 16 (min max_out (String.length s * 3)))) in
    let pos = ref 0 in
    let add code =
      let l = length code in
      if !pos + l > max_out then invalid_arg "Lzw.decompress: output over bound";
      if !pos + l > Bytes.length !out then begin
        let bigger = Bytes.create (max (!pos + l) (2 * Bytes.length !out)) in
        Bytes.blit !out 0 bigger 0 !pos;
        out := bigger
      end;
      let o = !out in
      if code < first_code then Bytes.set o !pos (Char.chr code)
      else begin
        (* the last byte is copied after the rest: for the entry being
           defined right now it is the first byte just written *)
        let src = start.(code) in
        Bytes.blit o src o !pos (l - 1);
        Bytes.set o (!pos + l - 1) (Bytes.get o (src + l - 1))
      end;
      pos := !pos + l
    in
    match read () with
    | None -> ""
    | Some c0 ->
        if c0 >= first_code then invalid_arg "Lzw.decompress";
        add c0;
        let prev = ref c0 and prev_at = ref 0 in
        let continue = ref true in
        while !continue do
          match read () with
          | None -> continue := false
          | Some code ->
              if code > !next_code then invalid_arg "Lzw.decompress: corrupt stream";
              if !next_code < max_entries then begin
                start.(!next_code) <- !prev_at;
                len.(!next_code) <- length !prev + 1;
                incr next_code
              end;
              prev_at := !pos;
              add code;
              prev := code
        done;
        Bytes.sub_string !out 0 !pos
  end

(** Compression ratio original/compressed; 1.0 for empty input. *)
let ratio s =
  if s = "" then 1.0
  else float_of_int (String.length s) /. float_of_int (String.length (compress s))
