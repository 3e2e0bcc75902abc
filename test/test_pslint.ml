(** Tests for pslint, the static stack-effect and type verifier.

    Four groups:
      - "clean": the shared prelude and the symbol tables psemit produces
        for real programs on every target must lint with zero findings
        (no false positives on shipped code);
      - "corpus": seeded defects — including mutations of real emitted
        tables — must each be flagged (no false negatives);
      - "coverage": every operator the interpreter registers is known to
        the signature table;
      - "soundness" (qcheck): a random program that pslint passes never
        raises typecheck or stackunderflow when executed. *)

module L = Ldb_pscheck.Lattice
module C = Ldb_pscheck.Pscheck
module I = Ldb_pscript.Interp
module V = Ldb_pscript.Value
module Ps = Ldb_pscript.Ps

let check = Alcotest.check

let lint ?(deep = true) src =
  let env = C.debugger_env () in
  C.check_program ~env ~deep ~name:"%test" src

let lint_strings fs = List.map L.finding_to_string fs

let assert_clean name src =
  match lint src with
  | [] -> ()
  | fs -> Alcotest.failf "%s: expected clean, got:\n%s" name (String.concat "\n" (lint_strings fs))

let assert_flags name ?(kind : L.kind option) src =
  match lint src with
  | [] -> Alcotest.failf "%s: expected a finding, got none" name
  | fs -> (
      match kind with
      | None -> ()
      | Some k ->
          if not (List.exists (fun (f : L.finding) -> f.L.kind = k) fs) then
            Alcotest.failf "%s: expected a %s finding, got:\n%s" name (L.kind_name k)
              (String.concat "\n" (lint_strings fs)))

(* --- clean: prelude and emitted symbol tables ------------------------------ *)

let test_prelude_clean () =
  let env = C.base_env () in
  C.declare_debugger env;
  match C.check_program ~env ~deep:true ~name:"prelude" Ldb_pscript.Prelude.source with
  | [] -> ()
  | fs -> Alcotest.failf "prelude not clean:\n%s" (String.concat "\n" (lint_strings fs))

let structs_c =
  {|
struct point { int x; int y; };
static struct point origin;
static double factors[4];
char *tag(void) { return "pt"; }
double stretch(double f) { return f * 2.0 + 0.25; }
int main(void)
{
    struct point p;
    p.x = 1; p.y = 2;
    origin = p;
    factors[0] = stretch(1.5);
    printf("%d\n", origin.x + origin.y);
    return 0;
}
|}

(** Compile real programs for every target and lint every emitted table
    here, on its own (the emit-time gate has passed them already). *)
let emitted_tables () =
  List.concat_map
    (fun arch ->
      List.filter_map
        (fun (file, src) ->
          let o = Ldb_cc.Compile.compile ~defer:false ~arch ~file src in
          match o.Ldb_cc.Asm.o_ps with
          | None -> None
          | Some ps ->
              Some
                ( Printf.sprintf "%s@%s" file (Ldb_machine.Arch.name arch),
                  ps.Ldb_cc.Asm.pp_defs ))
        [ ("fib.c", Testkit.fib_c); ("structs.c", structs_c) ])
    Ldb_machine.Arch.all

let test_emitted_clean () =
  let tables = emitted_tables () in
  check Alcotest.int "four targets, two programs" 8 (List.length tables);
  List.iter
    (fun (name, body) ->
      let env = C.debugger_env () in
      match C.check_program ~env ~deep:true ~name body with
      | [] -> ()
      | fs ->
          Alcotest.failf "%s not clean:\n%s" name (String.concat "\n" (lint_strings fs)))
    tables

(* --- corpus: seeded defects must all be flagged ---------------------------- *)

let corpus : (string * L.kind * string) list =
  [
    ("underflow add", L.Underflow, "1 add");
    ("underflow in proc", L.Underflow, "/f {exch pop} def 1 f");
    ("type clash add", L.Type_clash, "(s) 1 add");
    ("type clash if-cond", L.Type_clash, "1 {2} if");
    ("type clash store-loc", L.Type_clash, "1.5 2.5 FloatStore");
    ("unknown op", L.Unknown_op, "1 2 addd");
    ("unknown op in proc", L.Unknown_op, "/g {dupp 1 add} def 2 g");
    ("unmatched ]", L.Unmatched_mark, "1 2 ]");
    ("unmatched >>", L.Unmatched_mark, "1 2 >>");
    ("odd dict pairs", L.Dict_access, "<< /a 1 /b >>");
    ("counttomark no mark", L.Unmatched_mark, "1 2 counttomark");
    ("branch arity", L.Branch_arity, "true {1} {} ifelse pop");
    ("string put", L.Dict_access, "(abc) 0 65 put");
    ("negative array", L.Range, "-1 array");
    ("bad Absolute space", L.Range, "0 (rr) Absolute");
    ("ImmediateCell size", L.Range, "0 ImmediateCell");
    ("syntax unterminated", L.Syntax, "{1 2 add");
    (* unary arithmetic must preserve the operand type: [abs] of a real
       is a real, and the interpreter's [not] traps on it *)
    ("not of real abs", L.Type_clash, "2.5 abs not");
    ("not of real neg", L.Type_clash, "2.5 dup add neg not");
  ]

let test_corpus () =
  List.iter (fun (name, kind, src) -> assert_flags name ~kind src) corpus;
  (* the issue asks for >= 10 distinct defects *)
  if List.length corpus < 10 then Alcotest.fail "corpus too small"

(** Mutations of a real emitted table: pslint must catch compiler-level
    breakage, not only toy programs. *)
let replace_once ~what ~by s =
  let n = String.length s and m = String.length what in
  let rec find i = if i + m > n then None else if String.sub s i m = what then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))

let test_mutated_table () =
  let name, body = List.hd (emitted_tables ()) in
  (* 1. misspell an operator the table relies on *)
  (match replace_once ~what:"LazyData" ~by:"LazyDataa" body with
  | None -> Alcotest.failf "%s: no LazyData to mutate" name
  | Some mutated -> assert_flags (name ^ " misspelled op") ~kind:L.Unknown_op mutated);
  (* 2. drop an operand: "8 dict" -> "dict" somewhere in the table *)
  match replace_once ~what:" dict" ~by:" pop dict" body with
  | None -> Alcotest.failf "%s: no dict to mutate" name
  | Some mutated -> assert_flags (name ^ " dropped operand") mutated

let test_mutated_prelude () =
  match replace_once ~what:"Put" ~by:"Putt" Ldb_pscript.Prelude.source with
  | None -> Alcotest.fail "prelude has no Put"
  | Some mutated ->
      let env = C.base_env () in
      C.declare_debugger env;
      (match C.check_program ~env ~deep:true ~name:"prelude" mutated with
      | [] -> Alcotest.fail "mutated prelude not flagged"
      | fs ->
          if not (List.exists (fun (f : L.finding) -> f.L.kind = L.Unknown_op) fs) then
            Alcotest.failf "expected unknown-op, got:\n%s" (String.concat "\n" (lint_strings fs)))

let test_positions () =
  match lint "1 1 add\n(x) 3 mul" with
  | [ f ] ->
      check Alcotest.int "line" 2 f.L.line;
      check Alcotest.int "col" 7 f.L.col;
      check Alcotest.string "kind" "type-clash" (L.kind_name f.L.kind)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_clean_idioms () =
  (* precision checks: idioms shipped code uses must not be flagged *)
  assert_clean "roll" "1 2 3 3 -1 roll pop pop pop";
  assert_clean "roll n=0" "1 0 -5 roll pop";
  assert_clean "frame loc" "FrameMem {30 FrameLoc} exec FetchI32 pop";
  assert_clean "balanced ifelse" "true {1} {2} ifelse pop";
  assert_clean "dict literal" "<< /a 1 /b (x) >> /a get pop";
  assert_clean "begin/def/end" "1 dict begin /a 2 def a 1 add pop end";
  assert_clean "mark/clear" "[ 1 2 3 ] aload";
  assert_clean "loop exit" "0 { 1 add dup 10 gt { exit } if } loop pop";
  assert_clean "stopped" "{ (oops) stop } stopped { pop } if";
  assert_clean "abs of int stays int" "1 abs not pop";
  assert_clean "neg of real compares" "2.5 neg 0.5 gt not pop"

(* --- coverage: the signature table is exhaustive --------------------------- *)

let test_coverage () =
  let t = Ps.create () in
  let missing = List.filter (fun name -> not (C.covers name)) (I.registered_ops t) in
  if missing <> [] then
    Alcotest.failf "operators unknown to pslint: %s" (String.concat " " missing)

(* --- soundness (qcheck) ----------------------------------------------------- *)

(** Generator of small random programs over a mix of well- and ill-typed
    building blocks.  The property is one-sided: whenever pslint reports
    nothing, execution must not raise typecheck or stackunderflow.  (The
    generator deliberately includes blocks that push strings under
    arithmetic so that some samples are rejected — those are skipped.) *)
let gen_program : string QCheck.arbitrary =
  let open QCheck.Gen in
  let block =
    oneofl
      [
        (* no bare cvi/cvr: their success on strings depends on the string's
           contents, which no static check can decide *)
        "1"; "2.5"; "(s)"; "true"; "dup"; "pop"; "exch"; "1 add"; "2 mul";
        "neg"; "1 cvi"; "2 cvr"; "dup add"; "1 2 3"; "3 1 roll"; "2 copy";
        "1 index"; "dup 0 gt {1 add} {1 sub} ifelse"; "3 {dup pop} repeat";
        "count"; "clear 0"; "[ 1 2 ] length"; "<< /k 1 >> /k get";
        "not"; "abs"; "1 exch"; "mark counttomark cleartomark 0";
      ]
  in
  let g =
    list_size (int_range 1 8) block >|= fun blocks -> String.concat " " blocks
  in
  QCheck.make ~print:(fun s -> s) g

let prop_sound =
  QCheck.Test.make ~name:"pslint-clean programs do not trap" ~count:500 gen_program
    (fun src ->
      let env = C.base_env () in
      match C.check_program ~env ~deep:true ~name:"%gen" src with
      | _ :: _ -> true (* rejected by pslint: no claim about execution *)
      | [] -> (
          let t = Ps.create () in
          match I.run_string t src with
          | () -> true
          | exception V.Error (("typecheck" | "stackunderflow"), detail) ->
              QCheck.Test.fail_reportf "pslint passed %S but execution trapped: %s" src detail
          | exception V.Error _ -> true (* e.g. rangecheck on data values: out of scope *)))

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "pslint"
    [
      ( "clean",
        [ case "prelude" test_prelude_clean; case "emitted tables" test_emitted_clean;
          case "idioms" test_clean_idioms ] );
      ( "corpus",
        [ case "seeded defects" test_corpus; case "mutated table" test_mutated_table;
          case "mutated prelude" test_mutated_prelude; case "positions" test_positions ] );
      ( "coverage", [ case "signature table" test_coverage ] );
      ( "soundness", [ QCheck_alcotest.to_alcotest prop_sound ] );
    ]
