(** Tests for the lcc-sim compiler: lexer, parser, types and layout,
    constant folding, correctness of generated code on all four targets
    (differential testing), the stopping-point no-ops, the scheduler, and
    the two symbol-table emitters. *)

open Ldb_machine
open Ldb_cc

let check = Alcotest.check

(* --- lexer -------------------------------------------------------------------- *)

let toks src = List.map (fun l -> l.Lex.tok) (Lex.all src)

let test_lexer_basics () =
  check Alcotest.int "count" 6 (List.length (toks "int x = 42;"));
  (match toks "0x1F" with
  | [ Lex.Tint n; Lex.Teof ] -> check Alcotest.int32 "hex" 31l n
  | _ -> Alcotest.fail "hex literal");
  (match toks "3.5e2" with
  | [ Lex.Tfloat f; Lex.Teof ] -> check (Alcotest.float 0.0) "float" 350.0 f
  | _ -> Alcotest.fail "float literal");
  (match toks "'\\n'" with
  | [ Lex.Tchar '\n'; Lex.Teof ] -> ()
  | _ -> Alcotest.fail "char escape");
  match toks "\"a\\tb\"" with
  | [ Lex.Tstring "a\tb"; Lex.Teof ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lexer_comments () =
  check Alcotest.int "line comment" 2 (List.length (toks "x // junk\n"));
  check Alcotest.int "block comment" 3 (List.length (toks "a /* b c */ d"))

let test_lexer_positions () =
  match Lex.all "x\n  y" with
  | [ a; b; _ ] ->
      check Alcotest.int "line 1" 1 a.Lex.pos.Lex.line;
      check Alcotest.int "line 2" 2 b.Lex.pos.Lex.line;
      check Alcotest.int "col 3" 3 b.Lex.pos.Lex.col
  | _ -> Alcotest.fail "token count"

let test_lexer_multichar_punct () =
  match toks "a <<= b >= c" with
  | [ Lex.Tid "a"; Lex.Tpunct "<<="; Lex.Tid "b"; Lex.Tpunct ">="; Lex.Tid "c"; Lex.Teof ] -> ()
  | _ -> Alcotest.fail "punct"

(* --- parser -------------------------------------------------------------------- *)

let parse src = Parse.parse_unit ~file:"t.c" ~arch:Mips src

let test_parse_function () =
  let u = parse "int f(int a, int b) { return a + b; }" in
  match u.Ast.tops with
  | [ Ast.Tfunc f ] ->
      check Alcotest.string "name" "f" f.Ast.fname;
      check Alcotest.int "params" 2 (List.length f.Ast.fparams)
  | _ -> Alcotest.fail "expected one function"

let test_parse_precedence () =
  let u = parse "int f(void) { return 1 + 2 * 3; }" in
  match u.Ast.tops with
  | [ Ast.Tfunc { fbody = { bstmts = [ Ast.Sreturn (Some e, _) ]; _ }; _ } ] -> (
      match e with
      | Ast.Ebin ("+", Ast.Eint (1l, _), Ast.Ebin ("*", _, _, _), _) -> ()
      | _ -> Alcotest.fail "precedence wrong")
  | _ -> Alcotest.fail "shape"

let test_parse_declarators () =
  let u = parse "int a[3][4]; int *p; struct s { int x; char c; } ;" in
  match u.Ast.tops with
  | Ast.Tvar { dty = Ctype.Array (Ctype.Array (Ctype.Int, 4), 3); _ } :: _ -> ()
  | _ -> Alcotest.fail "array of array"

let test_parse_error_position () =
  match parse "int f(void) { return 1 +; }" with
  | exception Parse.Error (_, p) -> check Alcotest.int "error line" 1 p.Lex.line
  | _ -> Alcotest.fail "expected parse error"

(* --- types and layout ------------------------------------------------------------ *)

let test_sizes_per_target () =
  check Alcotest.int "int" 4 (Ctype.size Mips Ctype.Int);
  check Alcotest.int "double" 8 (Ctype.size Vax Ctype.Double);
  check Alcotest.int "long double on m68k" 10 (Ctype.size M68k Ctype.LongDouble);
  check Alcotest.int "long double elsewhere" 8 (Ctype.size Sparc Ctype.LongDouble);
  check Alcotest.int "array" 80 (Ctype.size Mips (Ctype.Array (Ctype.Int, 20)))

let test_struct_layout () =
  let sd = { Ctype.sname = "s"; fields = []; ssize = 0; complete = false } in
  Ctype.layout_struct Mips sd
    [ ("c", Ctype.Char); ("i", Ctype.Int); ("s", Ctype.Short); ("d", Ctype.Double) ];
  let field n = match Ctype.field sd n with Some f -> f.Ctype.foffset | None -> -1 in
  check Alcotest.int "c at 0" 0 (field "c");
  check Alcotest.int "i aligned to 4" 4 (field "i");
  check Alcotest.int "s at 8" 8 (field "s");
  check Alcotest.int "d aligned" 12 (field "d");
  check Alcotest.int "size rounded" 20 sd.Ctype.ssize

let test_decl_strings () =
  check Alcotest.string "array" "int %s[20]" (Ctype.decl_string (Ctype.Array (Ctype.Int, 20)));
  check Alcotest.string "ptr" "char *%s" (Ctype.decl_string (Ctype.Ptr Ctype.Char));
  check Alcotest.string "display" "int[20]" (Ctype.to_string (Ctype.Array (Ctype.Int, 20)))

(* --- differential execution tests across all targets ------------------------------ *)

let battery : (string * string * string) list =
  [
    ( "arith",
      {|int main(void) {
          printf("%d %d %d %d %d\n", 7+3, 7-3, 7*3, 7/3, 7%3);
          printf("%d %d %d\n", -5/2, -5%2, 1<<10);
          return 0;
        }|},
      "10 4 21 2 1\n-2 -1 1024\n" );
    ( "comparisons",
      {|int main(void) {
          int a; int b;
          a = 3; b = -4;
          printf("%d%d%d%d%d%d\n", a<b, a<=b, a>b, a>=b, a==b, a!=b);
          printf("%d%d\n", a==3, b!=-4);
          return 0;
        }|},
      "001101\n10\n" );
    ( "unsigned",
      {|int main(void) {
          unsigned u;
          u = 0x80000000;
          printf("%u %u %d\n", u >> 4, u / 2, u > 1);
          return 0;
        }|},
      "134217728 1073741824 1\n" );
    ( "shortcircuit",
      {|int side;
        int bump(int v) { side = side + 1; return v; }
        int main(void) {
          int r;
          side = 0;
          r = bump(0) && bump(1);
          printf("%d %d ", r, side);
          r = bump(1) || bump(0);
          printf("%d %d\n", r, side);
          return 0;
        }|},
      "0 1 1 2\n" );
    ( "loops",
      {|int main(void) {
          int i; int s;
          s = 0;
          for (i = 0; i < 10; i++) { if (i == 5) continue; s += i; }
          while (s > 20) s -= 7;
          do { s++; } while (s < 19);
          printf("%d\n", s);
          return 0;
        }|},
      "20\n" );
    ( "recursion",
      {|int ack(int m, int n) {
          if (m == 0) return n + 1;
          if (n == 0) return ack(m - 1, 1);
          return ack(m - 1, ack(m, n - 1));
        }
        int main(void) { printf("%d\n", ack(2, 3)); return 0; }|},
      "9\n" );
    ( "pointers",
      {|int swap(int *a, int *b) { int t; t = *a; *a = *b; *b = t; return 0; }
        int main(void) {
          int x; int y; int *p;
          x = 1; y = 2;
          swap(&x, &y);
          p = &x;
          *p += 10;
          printf("%d %d\n", x, y);
          return 0;
        }|},
      "12 1\n" );
    ( "arrays2d",
      {|int main(void) {
          int m[3][4];
          int i; int j; int s;
          for (i = 0; i < 3; i++)
            for (j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          s = 0;
          for (i = 0; i < 3; i++) s += m[i][3];
          printf("%d %d\n", s, m[2][1]);
          return 0;
        }|},
      "39 21\n" );
    ( "strings",
      {|int len(char *s) { int n; n = 0; while (*s++) n++; return n; }
        int main(void) {
          char *msg;
          msg = "hello, world";
          printf("%s has %d chars, first %c\n", msg, len(msg), msg[0]);
          return 0;
        }|},
      "hello, world has 12 chars, first h\n" );
    ( "structs",
      {|struct point { int x; int y; };
        struct rect { struct point lo; struct point hi; };
        int area(struct rect *r) {
          return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
        }
        int main(void) {
          struct rect r;
          r.lo.x = 1; r.lo.y = 2; r.hi.x = 5; r.hi.y = 7;
          printf("%d\n", area(&r));
          return 0;
        }|},
      "20\n" );
    ( "floats",
      {|double square(double x) { return x * x; }
        int main(void) {
          double d; float f; int i;
          d = 1.5;
          f = 0.25;
          d = square(d) + f;
          i = d * 4.0;
          printf("%g %d %d\n", d, i, d > 2.0);
          return 0;
        }|},
      "2.5 10 1\n" );
    ( "longdouble",
      {|int main(void) {
          long double x;
          x = 1.25;
          x = x * 4.0;
          printf("%g\n", x);
          return 0;
        }|},
      "5\n" );
    ( "register",
      {|int sum(int n) {
          register int acc;
          register int i;
          acc = 0;
          for (i = 1; i <= n; i++) acc += i;
          return acc;
        }
        int main(void) { printf("%d\n", sum(100)); return 0; }|},
      "5050\n" );
    ( "globals",
      {|int counter = 5;
        static int secret = 10;
        int bump(void) { counter++; secret += 2; return secret; }
        int main(void) {
          bump(); bump();
          /* bump() evaluates before counter is read (right-to-left) */
          printf("%d %d\n", counter, bump());
          return 0;
        }|},
      "8 16\n" );
    ( "conditional",
      {|int main(void) {
          int a; int b;
          a = 3;
          b = a > 2 ? a * 100 : -1;
          printf("%d %d\n", b, a < 2 ? 1 : 2);
          return 0;
        }|},
      "300 2\n" );
    ( "manyargs",
      {|int add8(int a, int b, int c, int d, int e, int f, int g, int h) {
          return a + 10*b + 100*c + d + e + f + g + h;
        }
        int main(void) {
          printf("%d\n", add8(1, 2, 3, 4, 5, 6, 7, 8));
          return 0;
        }|},
      "351\n" );
    ( "incdec",
      {|int main(void) {
          int i; int a[4];
          i = 0;
          a[i++] = 5;
          a[i++] = 6;
          a[--i] = 7;
          /* argument evaluation is right-to-left on every target */
          printf("%d %d %d %d\n", a[0], a[1], i, ++i);
          return 0;
        }|},
      "5 7 2 2\n" );
    ( "chars",
      {|int main(void) {
          char c; short s;
          c = 200;          /* wraps to -56 as signed char */
          s = 40000;        /* wraps as signed short */
          printf("%d %d\n", c, s);
          return 0;
        }|},
      "-56 -25536\n" );
    ( "funcptr",
      {|int twice(int x) { return 2 * x; }
        int thrice(int x) { return 3 * x; }
        int main(void) {
          int (*f)(int);
          f = twice;
          printf("%d ", f(21));
          f = thrice;
          printf("%d\n", f(14));
          return 0;
        }|},
      "42 42\n" );
    ( "switch",
      {|int classify(int x) {
          int r;
          r = 0;
          switch (x) {
          case 0:
          case 1: r = 100; break;
          case 2: r = 200;          /* falls through */
          case 3: r = r + 5; break;
          case -4: r = 400; break;
          default: r = -1;
          }
          return r;
        }
        int main(void) {
          int i;
          for (i = -5; i <= 4; i++) printf("%d ", classify(i));
          printf("\n");
          return 0;
        }|},
      "-1 400 -1 -1 -1 100 100 205 5 -1 \n" );
    ( "sizeofops",
      {|struct big { double d; int i; };
        int main(void) {
          int arr[10];
          arr[0] = 0;
          printf("%d %d %d %d\n",
                 sizeof(int), sizeof(double), sizeof(struct big), sizeof(arr));
          return 0;
        }|},
      "4 8 12 40\n" );
  ]

let battery_case (name, src, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Testkit.run_all_archs [ (name ^ ".c", src) ] ~expect_status:0 ~expect_out:expected)

(* --- debug no-ops and the scheduler ----------------------------------------------- *)

let count_nops (o : Asm.t) =
  List.fold_left
    (fun n item ->
      match item with Asm.Ins Ldb_machine.Insn.Nop -> n + 1 | _ -> n)
    0 o.Asm.o_text

let test_noop_overhead () =
  List.iter
    (fun arch ->
      let dbg = Compile.compile ~debug:true ~arch ~file:"fib.c" Testkit.fib_c in
      let nodbg = Compile.compile ~debug:false ~arch ~file:"fib.c" Testkit.fib_c in
      let n1, _ = Compile.text_stats dbg and n0, _ = Compile.text_stats nodbg in
      Alcotest.(check bool)
        (Arch.name arch ^ " -g adds instructions")
        true (n1 > n0);
      let pct = 100.0 *. float_of_int (n1 - n0) /. float_of_int n0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.1f%% in a plausible band" (Arch.name arch) pct)
        true
        (pct > 5.0 && pct < 45.0))
    Arch.all

let test_scheduler_no_hazards () =
  List.iter
    (fun (name, src, _) ->
      let o = Compile.compile ~debug:true ~arch:Mips ~file:(name ^ ".c") src in
      match Sched.verify o.Asm.o_text with
      | None -> ()
      | Some i -> Alcotest.failf "%s: hazard at %d" name i)
    battery

let test_scheduler_restriction () =
  (* stopping-point labels limit scheduling, so -g pads more no-ops *)
  let total debug =
    List.fold_left
      (fun acc (name, src, _) ->
        acc + count_nops (Compile.compile ~debug ~arch:Mips ~file:(name ^ ".c") src))
      0 battery
  in
  let with_g = total true and without_g = total false in
  Alcotest.(check bool)
    (Printf.sprintf "with -g %d nops >= without %d" with_g without_g)
    true
    (with_g > without_g)

(* --- symbol table emitters ----------------------------------------------------------- *)

let test_ps_symtab_is_valid_postscript () =
  List.iter
    (fun arch ->
      let o = Compile.compile ~debug:true ~arch ~file:"fib.c" Testkit.fib_c in
      match o.Asm.o_ps with
      | None -> Alcotest.fail "no PS emitted"
      | Some ps ->
          let t = Ldb_pscript.Ps.create () in
          (* reading the defs must not raise *)
          Ldb_pscript.Interp.run_string t ps.Asm.pp_defs;
          Alcotest.(check bool)
            (Arch.name arch ^ " has procs")
            true
            (List.length ps.Asm.pp_procs = 2))
    Arch.all

let test_ps_symtab_defer_flag () =
  let o1 = Compile.compile ~debug:true ~defer:true ~arch:Vax ~file:"f.c" Testkit.fib_c in
  let o2 = Compile.compile ~debug:true ~defer:false ~arch:Vax ~file:"f.c" Testkit.fib_c in
  match (o1.Asm.o_ps, o2.Asm.o_ps) with
  | Some a, Some b ->
      (* deferred form wraps the body in a string *)
      Alcotest.(check bool) "deferred is parenthesized" true
        (String.length a.Asm.pp_defs > 0
        && String.contains a.Asm.pp_defs '('
        && a.Asm.pp_defs <> b.Asm.pp_defs)
  | _ -> Alcotest.fail "missing PS"

let test_stabs_emitted_and_smaller () =
  let o = Compile.compile ~debug:true ~arch:Mips ~file:"fib.c" Testkit.fib_c in
  match o.Asm.o_ps with
  | None -> Alcotest.fail "no ps"
  | Some ps ->
      Alcotest.(check bool) "stabs nonempty" true (String.length o.Asm.o_stabs > 0);
      Alcotest.(check bool) "PostScript much larger than stabs" true
        (String.length ps.Asm.pp_defs > 3 * String.length o.Asm.o_stabs)

let test_compile_error_reporting () =
  match Compile.compile ~arch:Mips ~file:"bad.c" "int main(void) { return x; }" with
  | exception Compile.Error m ->
      Alcotest.(check bool) "mentions undeclared" true
        (String.length m > 0 &&
         let has sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
           go 0
         in
         has "undeclared")
  | _ -> Alcotest.fail "expected compile error"

(* [translate] is the front half of [compile]: its errors carry the
   file:line:col prefix, and [compile] reports exactly the same message. *)
let test_translate_error_position () =
  let src = "int main(void)\n{\n    return x;\n}\n" in
  let message f =
    match f () with _ -> Alcotest.fail "expected compile error" | exception Compile.Error m -> m
  in
  let m = message (fun () -> ignore (Compile.translate ~arch:Mips ~file:"bad.c" src)) in
  let prefix = "bad.c:3:" in
  Alcotest.(check string) "file:line prefix" prefix
    (String.sub m 0 (min (String.length m) (String.length prefix)));
  Alcotest.(check string) "compile reports the same error" m
    (message (fun () -> ignore (Compile.compile ~arch:Mips ~file:"bad.c" src)))

(* --- peephole optimizer -------------------------------------------------- *)

let test_peephole_shrinks_code () =
  List.iter
    (fun arch ->
      let with_opt = Compile.compile ~optimize:true ~arch ~file:"f.c" Testkit.fib_c in
      let without = Compile.compile ~optimize:false ~arch ~file:"f.c" Testkit.fib_c in
      let n1, _ = Compile.text_stats with_opt and n0, _ = Compile.text_stats without in
      Alcotest.(check bool) (Arch.name arch ^ " not larger") true (n1 <= n0))
    Arch.all

let test_peephole_preserves_behaviour () =
  (* the whole battery must produce identical output with and without the
     optimizer on every architecture *)
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun arch ->
          let img, _ =
            Ldb_link.Driver.build ~arch [ (name ^ ".c", src) ]
          in
          let p = Ldb_link.Link.load img in
          ignore (Ldb_machine.Proc.run p);
          Alcotest.(check string)
            (Printf.sprintf "%s/%s" name (Arch.name arch))
            expected
            (Ldb_machine.Proc.output p))
        [ Mips; Vax ])
    battery

let test_peephole_mov_elimination () =
  let items = [ Asm.Ins (Ldb_machine.Insn.Mov (3, 3)); Asm.Ins (Ldb_machine.Insn.Ret) ] in
  let out, st = Peephole.run (Ldb_machine.Target.of_arch Vax) items in
  Alcotest.(check int) "removed" 1 st.Peephole.removed;
  Alcotest.(check int) "one insn left" 1 (List.length out)

let test_peephole_li_alu_fold () =
  let open Ldb_machine.Insn in
  (* r5 is overwritten afterwards, so the li/alu pair may fold *)
  let items =
    [ Asm.Ins (Li (5, 42l)); Asm.Ins (Alu (Add, 2, 1, 5)); Asm.Ins (Li (5, 0l)); Asm.Ins Ret ]
  in
  let out, st = Peephole.run (Ldb_machine.Target.of_arch Vax) items in
  Alcotest.(check int) "folded" 1 st.Peephole.folded;
  match out with
  | [ Asm.Ins (Alui (Add, 2, 1, 42l)); Asm.Ins (Li (5, 0l)); Asm.Ins Ret ] -> ()
  | _ -> Alcotest.fail "expected a folded alui"

let test_peephole_keeps_live_li () =
  let open Ldb_machine.Insn in
  (* rK is used again afterwards: must NOT fold *)
  let items =
    [ Asm.Ins (Li (5, 42l)); Asm.Ins (Alu (Add, 2, 1, 5)); Asm.Ins (Mov (3, 5)); Asm.Ins Ret ]
  in
  let out, st = Peephole.run (Ldb_machine.Target.of_arch Vax) items in
  Alcotest.(check int) "not folded" 0 st.Peephole.folded;
  Alcotest.(check int) "unchanged" 4 (List.length out)

let test_peephole_keeps_stop_nops () =
  let o1 = Compile.compile ~optimize:true ~arch:M68k ~file:"f.c" Testkit.fib_c in
  let o0 = Compile.compile ~optimize:false ~arch:M68k ~file:"f.c" Testkit.fib_c in
  let stops o =
    List.filter (function Asm.Label l -> String.length l >= 7 && String.sub l 0 7 = "__stop$" | _ -> false)
      o.Asm.o_text
    |> List.length
  in
  Alcotest.(check int) "stopping points preserved" (stops o0) (stops o1)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "cc"
    [
      ( "lexer",
        [ case "basics" test_lexer_basics; case "comments" test_lexer_comments;
          case "positions" test_lexer_positions; case "punct" test_lexer_multichar_punct ] );
      ( "parser",
        [ case "function" test_parse_function; case "precedence" test_parse_precedence;
          case "declarators" test_parse_declarators;
          case "error positions" test_parse_error_position ] );
      ( "types",
        [ case "sizes" test_sizes_per_target; case "struct layout" test_struct_layout;
          case "decl strings" test_decl_strings ] );
      ("codegen (all targets)", List.map battery_case battery);
      ( "scheduler",
        [ case "no hazards remain" test_scheduler_no_hazards;
          case "-g restricts scheduling" test_scheduler_restriction;
          case "no-op overhead" test_noop_overhead ] );
      ( "peephole",
        [ case "never larger" test_peephole_shrinks_code;
          case "behaviour preserved" test_peephole_preserves_behaviour;
          case "mov elimination" test_peephole_mov_elimination;
          case "li/alu folding" test_peephole_li_alu_fold;
          case "liveness guard" test_peephole_keeps_live_li;
          case "stopping points preserved" test_peephole_keeps_stop_nops ] );
      ( "symbol tables",
        [ case "PostScript parses" test_ps_symtab_is_valid_postscript;
          case "deferral flag" test_ps_symtab_defer_flag;
          case "stabs smaller" test_stabs_emitted_and_smaller;
          case "errors" test_compile_error_reporting;
          case "translate error positions" test_translate_error_position ] );
    ]
