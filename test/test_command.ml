(** The command language every front end speaks: the parser is total,
    the printer inverts it, the server's twelve commands parse to the
    constructors the wire carries, and every server command the parser
    accepts survives the wire codec unchanged, so no front end can send a
    line or address the wire would wrap. *)

module Command = Ldb_ldb.Command
module Server = Ldb_ldb.Server
module Swire = Ldb_ldb.Swire

let check = Alcotest.check

(* --- generators ------------------------------------------------------------ *)

let verbs =
  [ "break"; "b"; "condition"; "continue"; "c"; "run"; "step"; "s"; "where"; "backtrace";
    "bt"; "print"; "p"; "read"; "core"; "detach"; "kill"; "stepi"; "si"; "eval"; "e";
    "set"; "regs"; "disas"; "arch"; "info"; "clear"; "report"; "record"; "rstep"; "rsi";
    "rcontinue"; "rc"; "rwatch"; "present"; "quit"; "q"; "bye"; "frobnicate" ]

(* numbers on both sides of every bound the grammar enforces *)
let numbers =
  [ "0"; "1"; "7"; "-1"; "12x"; "0x1034"; "0xffffffff"; "0x100000000"; "4294967295";
    "4294967296"; "4294967303"; "-2147483648"; "-2147483649"; "99999999999999999999" ]

(** Lines in the grammar's own vocabulary, so a good share of them parse. *)
let gen_line : string QCheck.Gen.t =
  let open QCheck.Gen in
  let word =
    oneof
      [
        oneofl verbs;
        oneofl numbers;
        oneofl [ "if"; "="; ":"; "breaks"; "n"; "fib"; "t.c"; "a:b"; "n>3" ];
        map (fun n -> ":" ^ n) (oneofl numbers);
        map2 (fun f n -> f ^ ":" ^ n) (oneofl [ "t.c"; "a:b" ]) (oneofl numbers);
        string_size ~gen:printable (int_bound 6);
      ]
  in
  map2
    (fun v ws -> String.concat (if List.length ws mod 2 = 0 then " " else " \t ") (v :: ws))
    (oneofl verbs)
    (list_size (int_bound 5) word)

let arb_line = QCheck.make ~print:Fun.id gen_line

let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let gen_expr =
  let open QCheck.Gen in
  map (String.concat " ")
    (list_size (int_range 1 4) (oneof [ gen_name; oneofl [ "+"; "=="; "3"; "if" ] ]))

let gen_u32 = QCheck.Gen.(oneof [ int_bound 0xffff; return 0xffffffff ])

(** Every constructor, with arguments in range. *)
let gen_command : Command.t QCheck.Gen.t =
  let open QCheck.Gen in
  let spec =
    oneof
      [
        map (fun f -> Command.Break_function f) gen_name;
        map2 (fun file line -> Command.Break_line { file; line }) (opt gen_name) gen_u32;
      ]
  in
  let server =
    oneof
      [
        spec;
        map2 (fun addr cond -> Command.Condition { addr; cond }) gen_u32 gen_expr;
        map (fun v -> Command.Print v) gen_name;
        map (fun v -> Command.Read_int v) gen_name;
        oneofl Command.[ Continue; Step_source; Where; Backtrace; Fetch_core; Detach; Kill ];
      ]
  in
  oneof
    [
      map (fun c -> Command.Server c) server;
      map2 (fun at cond -> Command.Break_if { at; cond }) spec gen_expr;
      map (fun e -> Command.Eval e) gen_expr;
      map2
        (fun name value -> Command.Set { name; value })
        gen_name
        (int_range (-0x80000000) 0xffffffff);
      map (fun a -> Command.Disas a) (opt gen_u32);
      map (fun f -> Command.Write_core f) gen_name;
      map (fun n -> Command.Record n) (int_range 1 0xffffffff);
      map (fun v -> Command.Rwatch v) gen_name;
      oneofl
        Command.
          [ Stepi; Regs; Arch; Info_breaks; Clear; Report; Rstep; Rcontinue; Present; Quit ];
    ]

let arb_command = QCheck.make ~print:Command.to_string gen_command

(* --- properties ------------------------------------------------------------- *)

let parse_is_total =
  QCheck.Test.make ~count:2000 ~name:"parse never raises"
    QCheck.(oneof [ string; printable_string; arb_line ])
    (fun s -> match Command.parse s with Ok _ | Error _ -> true)

let printer_inverts_parser =
  QCheck.Test.make ~count:2000 ~name:"parse (to_string c) = Ok c" arb_command (fun c ->
      Command.parse (Command.to_string c) = Ok c)

let parsed_lines_round_trip =
  QCheck.Test.make ~count:2000 ~name:"a parsed line prints to a line that parses the same"
    arb_line
    (fun s ->
      match Command.parse s with
      | Ok c -> Command.parse (Command.to_string c) = Ok c
      | Error _ -> true)

let survives_the_wire =
  QCheck.Test.make ~count:2000 ~name:"every parsed server command survives the wire codec"
    arb_line
    (fun s ->
      let carried c =
        Swire.decode_client (Swire.encode_client (Swire.C_cmd c)) = Ok (Swire.C_cmd c)
      in
      match Command.parse s with
      | Ok (Command.Server c) -> carried c
      | Ok (Command.Break_if { at; cond }) ->
          carried at && carried (Command.Condition { addr = 0xffffffff; cond })
      | Ok _ | Error _ -> true)

(* --- cases ------------------------------------------------------------------ *)

let server_lines () =
  List.iter
    (fun (line, want) ->
      check Alcotest.bool line true (Command.parse line = Ok (Command.Server want));
      check Alcotest.string ("printed: " ^ line) (Server.command_name want)
        (Command.to_string (Command.Server want)))
    Server.
      [
        ("break fib", Break_function "fib");
        ("b :12", Break_line { file = None; line = 12 });
        ("break t.c:12", Break_line { file = Some "t.c"; line = 12 });
        ("condition 0x1034 if n > 3", Condition { addr = 0x1034; cond = "n > 3" });
        ("continue", Continue);
        ("c", Continue);
        ("step", Step_source);
        ("where", Where);
        ("bt", Backtrace);
        ("print n", Print "n");
        ("read n", Read_int "n");
        ("core", Fetch_core);
        ("detach", Detach);
        ("kill", Kill);
      ];
  check Alcotest.string "the server's log prints what the parser reads" "break :12"
    (Server.command_name (Server.Break_line { file = None; line = 12 }))

let refusals () =
  let refused line want =
    check Alcotest.string line want
      (match Command.parse line with
      | Ok c -> "parsed as " ^ Command.to_string c
      | Error e -> Command.error_to_string e)
  in
  refused "break :4294967303" "line 4294967303 is outside 0..4294967295";
  refused "break :-1" "line -1 is outside 0..4294967295";
  refused "break :abc" "bad line: abc";
  refused "condition 0x100000000 if n" "address 4294967296 is outside 0..4294967295";
  refused "set n = 4294967296" "value 4294967296 is outside -2147483648..4294967295";
  refused "record 0" "checkpoint spacing 0 is outside 1..4294967295";
  refused "break fib if" "usage: break FUNC | break [FILE]:LINE [if EXPR]";
  refused "continue now" "usage: continue";
  refused "frobnicate" "unknown command: frobnicate";
  refused ("print " ^ String.make (Command.max_text + 1) 'a')
    (Printf.sprintf "name is %d bytes, over the %d-byte limit" (Command.max_text + 1)
       Command.max_text);
  check Alcotest.bool "blank" true (Command.parse " \t " = Error Command.Blank)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "command"
    [
      ( "grammar",
        [ case "the twelve server commands" server_lines; case "typed refusals" refusals ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ parse_is_total; printer_inverts_parser; parsed_lines_round_trip; survives_the_wire ] );
    ]
