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
        nbits := !nbits + Lzw.width_at !sent;
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
    let br = Lzw.br_make s and received = ref 0 and next = ref Lzw.first_code in
    let read () =
      incr received;
      Lzw.br_get br (Lzw.width_at !received)
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

let prop_lzw_matches_reference =
  Testkit.qtest "lzw output = string-keyed reference" ~count:300
    QCheck.(choose [ gen_core_like; string_gen_of_size (Gen.int_bound 3000) Gen.char ])
    (fun s -> Lzw.compress s = Lzw_ref.compress s)

(* long enough to fill the 16-bit dictionary and keep coding past it *)
let test_lzw_full_dictionary () =
  let rng = Random.State.make [| 17 |] in
  let s = String.init 300_000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let c = Lzw.compress s in
  check Alcotest.bool "same bytes as the reference" true (c = Lzw_ref.compress s);
  check Alcotest.bool "roundtrip" true (Lzw.decompress c = s)

let prop_lzw_decode_matches_reference =
  Testkit.qtest "lzw decode = reference, corrupt streams included" ~count:500
    QCheck.(
      pair (int_bound 4000)
        (choose
           [ map Lzw.compress gen_core_like;
             string_gen_of_size (Gen.int_bound 300) Gen.char ]))
    (fun (max_out, z) ->
      let run f = try Some (f ()) with Invalid_argument _ -> None in
      run (fun () -> Lzw.decompress ~max_out z) = run (fun () -> Lzw_ref.decompress ~max_out z))

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
