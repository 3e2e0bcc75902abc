(** Tests for the stabs baseline debugger front end. *)

module S = Ldb_stabsdbg.Stabsdbg

let check = Alcotest.check

let build arch =
  let img, _ = Ldb_link.Driver.build ~arch [ ("fib.c", Testkit.fib_c) ] in
  img

let test_parse_and_find () =
  let img = build Mips in
  let t = S.start img in
  Alcotest.(check bool) "has records" true (List.length t.S.stabs > 10);
  (match S.find t "fib" with
  | Some s -> check Alcotest.int "fib is a function" Ldb_cc.Stabsemit.n_fun s.S.st_type
  | None -> Alcotest.fail "fib not found");
  (match S.find t "a" with
  | Some s ->
      check Alcotest.string "array type decoded" "int[20]" (S.sym_type_display s)
  | None -> Alcotest.fail "a not found");
  check Alcotest.bool "has line records" true (t.S.nlines > 10)

let test_functions_listed () =
  let t = S.start (build Vax) in
  let names = S.function_names t in
  Alcotest.(check bool) "fib and main" true (List.mem "fib" names && List.mem "main" names)

let test_type_display () =
  check Alcotest.string "ptr" "char *" (S.type_display "*c");
  check Alcotest.string "array" "int[8]" (S.type_display "a8,i");
  check Alcotest.string "struct" "struct point" (S.type_display "Spoint");
  check Alcotest.string "nested" "double *[4]" (S.type_display "a4,*d")

let test_corrupt_rejected () =
  match S.parse "\x24\x00" with
  | exception S.Corrupt _ -> ()
  | _ -> Alcotest.fail "accepted a truncated record"

(** One record pinned to the bytes it encoded to when the layout was
    fixed, and read back: the u32 value field is unsigned on the wire. *)
let test_record_golden () =
  let b = Buffer.create 16 in
  Ldb_cc.Stabsemit.add_record b ~ty:Ldb_cc.Stabsemit.n_fun ~desc:0x1234 ~value:(-8)
    ~str:"fib:Fv";
  Testkit.check_goldens [ ("stab record", "243412f8ffffff06006669623a4676", Buffer.contents b) ];
  match (S.parse (Buffer.contents b)).S.stabs with
  | [ s ] ->
      check Alcotest.(list int) "fields" [ Ldb_cc.Stabsemit.n_fun; 0x1234; 0xfffffff8 ]
        [ s.S.st_type; s.S.st_desc; s.S.st_value ];
      check Alcotest.string "name" "fib:Fv" s.S.st_name
  | l -> Alcotest.failf "%d records decoded from one" (List.length l)

let test_machine_dependence_of_stabs () =
  (* the same program's stabs differ across targets (value fields carry
     machine-dependent frame offsets): this is the machine dependence ldb
     avoids *)
  let prog = [ ("t.c", "int main(void) { long double x; x = 1.0; return 0; }") ] in
  let stabs arch =
    let img, _ = Ldb_link.Driver.build ~arch prog in
    img.Ldb_link.Link.i_stabs
  in
  Alcotest.(check bool) "m68k differs from vax" true (stabs M68k <> stabs Vax)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "stabsdbg"
    [
      ( "stabs",
        [ case "parse and find" test_parse_and_find;
          case "functions" test_functions_listed;
          case "type display" test_type_display;
          case "corrupt input" test_corrupt_rejected;
          case "record golden" test_record_golden;
          case "machine dependence" test_machine_dependence_of_stabs ] );
    ]
