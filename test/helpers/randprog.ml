(** Randomly generated C programs with well-defined results: expressions
    over four int parameters whose operands are squashed with [% 997], so
    32-bit arithmetic never overflows.  [test_differential] runs them on
    all four targets; [test_machine] steps them with and without the
    predecode table. *)

type expr =
  | Num of int
  | Var of int  (** index into the pool of int locals *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** protected: emitted as a / (b | 1) style *)
  | Cmp of string * expr * expr
  | Cond of expr * expr * expr

let nvars = 4

let rec gen_expr depth : expr QCheck.Gen.t =
  let open QCheck.Gen in
  if depth = 0 then
    oneof [ map (fun n -> Num (n mod 1000)) small_nat; map (fun v -> Var (v mod nvars)) small_nat ]
  else
    let sub = gen_expr (depth - 1) in
    frequency
      [
        (2, map (fun n -> Num (n mod 1000)) small_nat);
        (2, map (fun v -> Var (v mod nvars)) small_nat);
        (3, map2 (fun a b -> Add (a, b)) sub sub);
        (3, map2 (fun a b -> Sub (a, b)) sub sub);
        (2, map2 (fun a b -> Mul (a, b)) sub sub);
        (1, map2 (fun a b -> Div (a, b)) sub sub);
        (2, map3 (fun op a b -> Cmp (op, a, b)) (oneofl [ "<"; "<="; "=="; "!=" ]) sub sub);
        (1, map3 (fun c a b -> Cond (c, a, b)) sub sub sub);
      ]

(* Keep magnitudes small so 32-bit arithmetic cannot overflow into
   implementation-defined territory: every operand is squashed with % 997
   before use. *)
let rec to_c (e : expr) : string =
  match e with
  | Num n -> string_of_int n
  | Var v -> Printf.sprintf "v%d" v
  | Add (a, b) -> Printf.sprintf "(%s %%997 + %s %%997)" (to_c a) (to_c b)
  | Sub (a, b) -> Printf.sprintf "(%s %%997 - %s %%997)" (to_c a) (to_c b)
  | Mul (a, b) -> Printf.sprintf "(%s %%997 * %s %%997)" (to_c a) (to_c b)
  | Div (a, b) -> Printf.sprintf "(%s %%997 / ((%s %%997) * (%s %%997) + 3))" (to_c a) (to_c b) (to_c b)
  | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_c a) op (to_c b)
  | Cond (c, a, b) -> Printf.sprintf "(%s != 0 ? %s %%997 : %s %%997)" (to_c c) (to_c a) (to_c b)

let program_of (exprs : expr list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int f(int v0, int v1, int v2, int v3)\n{\n    int r;\n    r = 0;\n";
  List.iter (fun e -> Buffer.add_string buf (Printf.sprintf "    r = r * 31 + (%s);\n" (to_c e))) exprs;
  Buffer.add_string buf "    return r;\n}\n";
  Buffer.add_string buf
    "int main(void)\n{\n    printf(\"%d %d %d\\n\", f(1,2,3,4), f(-5,0,7,1), f(100,-3,2,9));\n    return 0;\n}\n";
  Buffer.contents buf

let arb_program =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 5) (gen_expr 4) >|= program_of)
    ~print:(fun s -> s)
