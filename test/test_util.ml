(** Unit and property tests for lib/util: endian codecs, the LZW codec,
    hexdump, and line counting. *)

open Ldb_util

let check = Alcotest.check

(* --- endian ------------------------------------------------------------- *)

let test_u16_roundtrip () =
  let b = Bytes.create 2 in
  List.iter
    (fun order ->
      List.iter
        (fun v ->
          Endian.set_u16 order b 0 v;
          check Alcotest.int "u16" v (Endian.get_u16 order b 0))
        [ 0; 1; 0x1234; 0xfffe; 0xffff ])
    [ Endian.Little; Endian.Big ]

let test_u32_roundtrip () =
  let b = Bytes.create 4 in
  List.iter
    (fun order ->
      List.iter
        (fun v ->
          Endian.set_u32 order b 0 v;
          check Alcotest.int32 "u32" v (Endian.get_u32 order b 0))
        [ 0l; 1l; 0x12345678l; -1l; Int32.min_int; Int32.max_int ])
    [ Endian.Little; Endian.Big ]

let test_byte_order_differs () =
  let b = Bytes.create 4 in
  Endian.set_u32 Big b 0 0x11223344l;
  check Alcotest.int "big-endian MSB first" 0x11 (Endian.get_u8 b 0);
  Endian.set_u32 Little b 0 0x11223344l;
  check Alcotest.int "little-endian LSB first" 0x44 (Endian.get_u8 b 0)

let test_u64_roundtrip () =
  let b = Bytes.create 8 in
  List.iter
    (fun order ->
      List.iter
        (fun v ->
          Endian.set_u64 order b 0 v;
          check Alcotest.int64 "u64" v (Endian.get_u64 order b 0))
        [ 0L; 1L; 0x1122334455667788L; -1L; Int64.min_int ])
    [ Endian.Little; Endian.Big ]

let test_sext () =
  check Alcotest.int "sext 8 of 0xff" (-1) (Endian.sext 0xff 8);
  check Alcotest.int "sext 8 of 0x7f" 127 (Endian.sext 0x7f 8);
  check Alcotest.int "sext 16 of 0x8000" (-32768) (Endian.sext 0x8000 16);
  check Alcotest.int "sext 16 of 42" 42 (Endian.sext 42 16)

let prop_u32_any_order =
  Testkit.qtest "u32 round trip at random offsets"
    QCheck.(pair int32 (int_bound 28))
    (fun (v, off) ->
      let b = Bytes.create 32 in
      Endian.set_u32 Big b off v;
      let big_ok = Endian.get_u32 Big b off = v in
      Endian.set_u32 Little b off v;
      big_ok && Endian.get_u32 Little b off = v)

(* --- LZW ---------------------------------------------------------------- *)

let test_lzw_simple () =
  List.iter
    (fun s -> check Alcotest.string "roundtrip" s (Lzw.decompress (Lzw.compress s)))
    [ ""; "a"; "ab"; "aaaa"; "abcabcabcabc"; String.make 10000 'x';
      "the quick brown fox jumps over the lazy dog" ]

let test_lzw_compresses_repetitive () =
  let s = String.concat "" (List.init 500 (fun i -> Printf.sprintf "/S%d symbol " i)) in
  let c = Lzw.compress s in
  Alcotest.(check bool) "smaller" true (String.length c < String.length s / 2)

let test_lzw_ratio () =
  Alcotest.(check bool) "ratio > 1 on text" true (Lzw.ratio (String.make 1000 'a') > 5.0)

let prop_lzw_roundtrip =
  Testkit.qtest "lzw roundtrip on random strings" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 2000) QCheck.Gen.char)
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

let prop_lzw_printable =
  Testkit.qtest "lzw roundtrip on printable strings" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 5000) QCheck.Gen.printable)
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

(* The integer-keyed codec as it stood before the width schedule was
   tracked incrementally and decoding became one loop, kept verbatim: the
   current codec must write the same bytes, read what it wrote, and
   refuse the streams this one refuses. *)
module Lzw_prev = struct
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
end

(* The string-keyed codec, kept as the reference the integer-keyed one must
   match byte for byte (compression) and verdict for verdict
   (decompression, corrupt streams included). *)
module Lzw_ref = struct
  let compress (s : string) : string =
    if s = "" then ""
    else begin
      let table = Hashtbl.create 4096 in
      for i = 0 to 255 do
        Hashtbl.replace table (String.make 1 (Char.chr i)) i
      done;
      let out = Buffer.create 1024 and acc = ref 0 and nbits = ref 0 and sent = ref 0 in
      let emit code =
        incr sent;
        acc := !acc lor (code lsl !nbits);
        nbits := !nbits + Lzw_prev.width_at !sent;
        while !nbits >= 8 do
          Buffer.add_char out (Char.chr (!acc land 0xff));
          acc := !acc lsr 8;
          nbits := !nbits - 8
        done
      in
      let next = ref Lzw.first_code and w = ref (String.make 1 s.[0]) in
      for i = 1 to String.length s - 1 do
        let wc = !w ^ String.make 1 s.[i] in
        if Hashtbl.mem table wc then w := wc
        else begin
          emit (Hashtbl.find table !w);
          if !next < Lzw.max_entries then begin
            Hashtbl.replace table wc !next;
            incr next
          end;
          w := String.make 1 s.[i]
        end
      done;
      emit (Hashtbl.find table !w);
      if !nbits > 0 then Buffer.add_char out (Char.chr (!acc land 0xff));
      Buffer.contents out
    end

  let decompress ~max_out (s : string) : string =
    let dict = Hashtbl.create 4096 in
    for i = 0 to 255 do
      Hashtbl.replace dict i (String.make 1 (Char.chr i))
    done;
    let br = Lzw_prev.br_make s and received = ref 0 and next = ref Lzw.first_code in
    let read () =
      incr received;
      Lzw_prev.br_get br (Lzw_prev.width_at !received)
    in
    let out = Buffer.create 64 in
    let add e =
      if Buffer.length out + String.length e > max_out then invalid_arg "over bound";
      Buffer.add_string out e
    in
    (match read () with
    | None -> ()
    | Some c0 ->
        let prev = ref (try Hashtbl.find dict c0 with Not_found -> invalid_arg "first") in
        add !prev;
        let rec go () =
          match read () with
          | None -> ()
          | Some code ->
              let e =
                match Hashtbl.find_opt dict code with
                | Some e -> e
                | None when code = !next -> !prev ^ String.make 1 !prev.[0]
                | None -> invalid_arg "corrupt"
              in
              add e;
              if !next < Lzw.max_entries then begin
                Hashtbl.replace dict !next (!prev ^ String.make 1 e.[0]);
                incr next
              end;
              prev := e;
              go ()
        in
        go ());
    Buffer.contents out
end

(* byte strings with long zero runs, like the core dumps checkpoints hold *)
let gen_core_like =
  QCheck.(
    string_gen_of_size (Gen.int_bound 6000)
      (Gen.frequency [ (6, Gen.return '\000'); (1, Gen.char); (1, Gen.oneofl [ 'a'; 'b' ]) ]))

(* runs of one byte, short and long, like zero-filled memory with islands *)
let gen_runs =
  QCheck.(
    map (String.concat "")
      (list_of_size (Gen.int_bound 40)
         (map
            (fun (c, n) -> String.make n c)
            (pair (oneofl [ '\000'; '\000'; '\xff'; 'a'; 'b' ]) (int_bound 700)))))

let prop_lzw_matches_reference =
  Testkit.qtest "lzw output = string-keyed reference" ~count:300
    QCheck.(choose [ gen_core_like; string_gen_of_size (Gen.int_bound 3000) Gen.char ])
    (fun s -> Lzw.compress s = Lzw_ref.compress s)

let prop_lzw_matches_previous =
  Testkit.qtest "lzw output = previous codec on random and run-heavy inputs" ~count:300
    QCheck.(
      choose [ gen_core_like; gen_runs; string_gen_of_size (Gen.int_bound 3000) Gen.char ])
    (fun s -> Lzw.compress s = Lzw_prev.compress s)

let prop_lzw_both_decoders =
  Testkit.qtest "lzw roundtrips through both decoders" ~count:300
    QCheck.(
      choose [ gen_core_like; gen_runs; string_gen_of_size (Gen.int_bound 3000) Gen.char ])
    (fun s ->
      let z = Lzw.compress s in
      Lzw.decompress z = s && Lzw_prev.decompress z = s
      && Lzw.decompress (Lzw_prev.compress s) = s)

(* long enough to fill the 16-bit dictionary and keep coding past it *)
let test_lzw_full_dictionary () =
  let rng = Random.State.make [| 17 |] in
  let s = String.init 300_000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let c = Lzw.compress s in
  check Alcotest.bool "same bytes as the reference" true (c = Lzw_ref.compress s);
  check Alcotest.bool "same bytes as the previous codec" true (c = Lzw_prev.compress s);
  check Alcotest.bool "roundtrip" true (Lzw.decompress c = s);
  check Alcotest.bool "previous decoder reads it" true (Lzw_prev.decompress c = s)

let prop_lzw_decode_matches_reference =
  Testkit.qtest "lzw decode = reference, corrupt streams included" ~count:500
    QCheck.(
      pair (int_bound 4000)
        (choose
           [ map Lzw.compress gen_core_like;
             string_gen_of_size (Gen.int_bound 300) Gen.char ]))
    (fun (max_out, z) ->
      let run f = try Some (f ()) with Invalid_argument _ -> None in
      let got = run (fun () -> Lzw.decompress ~max_out z) in
      got = run (fun () -> Lzw_ref.decompress ~max_out z)
      && got = run (fun () -> Lzw_prev.decompress ~max_out z))

(* --- CRC-32 ----------------------------------------------------------------- *)

let crc_bytewise (s : string) =
  let crc = ref 0xffffffff in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then Crc32.polynomial lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xffffffff

let test_crc_check_value () =
  check Alcotest.int "CRC-32 of 123456789" 0xcbf43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "")

let prop_crc_matches_bitwise =
  Testkit.qtest "crc = bit-at-a-time reference, whole and split" ~count:300
    QCheck.(pair (string_gen_of_size (Gen.int_bound 200) Gen.char) small_nat)
    (fun (s, k) ->
      let cut = if s = "" then 0 else k mod (String.length s + 1) in
      let split =
        Crc32.finish
          (Crc32.update
             (Crc32.update (Crc32.init ()) s ~pos:0 ~len:cut)
             s ~pos:cut ~len:(String.length s - cut))
      in
      Crc32.string s = crc_bytewise s && split = crc_bytewise s)

(* --- hexdump / loc -------------------------------------------------------- *)

let test_hexdump () =
  let d = Hexdump.to_string "Hello, world! 0123456789" in
  Alcotest.(check bool) "contains hex" true
    (String.length d > 0
    &&
    let re = "48 65 6c 6c 6f" in
    (* "Hello" *)
    let rec find i =
      i + String.length re <= String.length d
      && (String.sub d i (String.length re) = re || find (i + 1))
    in
    find 0)

let test_loc_count () =
  let src = "let x = 1\n\n(* comment *)\nlet y = 2\n  \n" in
  check Alcotest.int "counts code lines" 2 (Loc.count_string src)

let () =
  Alcotest.run "util"
    [
      ( "endian",
        [
          Alcotest.test_case "u16 roundtrip" `Quick test_u16_roundtrip;
          Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
          Alcotest.test_case "byte order differs" `Quick test_byte_order_differs;
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "sign extension" `Quick test_sext;
          prop_u32_any_order;
        ] );
      ( "lzw",
        [
          Alcotest.test_case "simple roundtrips" `Quick test_lzw_simple;
          Alcotest.test_case "compresses repetitive text" `Quick test_lzw_compresses_repetitive;
          Alcotest.test_case "ratio" `Quick test_lzw_ratio;
          prop_lzw_roundtrip;
          prop_lzw_printable;
          prop_lzw_matches_reference;
          prop_lzw_matches_previous;
          prop_lzw_both_decoders;
          Alcotest.test_case "full dictionary" `Quick test_lzw_full_dictionary;
          prop_lzw_decode_matches_reference;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          prop_crc_matches_bitwise;
        ] );
      ( "misc",
        [
          Alcotest.test_case "hexdump" `Quick test_hexdump;
          Alcotest.test_case "loc counting" `Quick test_loc_count;
        ] );
    ]
