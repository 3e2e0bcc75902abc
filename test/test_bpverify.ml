(** Tests for the breakpoint-condition bytecode and its static verifier:
    a corpus of malformed and hostile programs that must all be rejected
    (and refused with a typed error before any RPC is issued), qcheck
    properties (decode totality, encode/decode round trips, and the
    soundness theorem: a verifier-accepted program never traps the
    evaluator), the evaluator held to the [int32] interpreter it
    replaced on random programs and worlds, and differential tests
    proving nub-side and debugger-side condition evaluation
    byte-identical on all four targets — with the nub site costing
    orders of magnitude fewer RPCs on a hot loop, and a miss only a
    few dozen words. *)

open Ldb_machine
module B = Ldb_nub.Bpcode
module Bpverify = Ldb_nub.Bpverify
module Ldb = Ldb_ldb.Ldb
module Transport = Ldb_ldb.Transport
module Breakpoint = Ldb_ldb.Breakpoint
module Host = Ldb_ldb.Host
module Nub = Ldb_nub.Nub
module A = Ldb_amemory.Amemory
module Eval = Ldb_exprserver.Eval

let check = Alcotest.check

(* --- the hostile corpus ------------------------------------------------- *)

let d4 = B.Load { space = 'd'; size = 4; signed = true }

let data_addr = Int32.of_int (Ram.Layout.data_base + 16)

(** More static cost than the fuel bound allows, without any other flaw:
    a long chain of valid loads summed pairwise (the encoder would refuse
    a program this long, but [verify] takes the decoded array — a
    hostile peer can hand the nub's verifier anything). *)
let cost_bomb : B.prog =
  Array.concat
    ([ [| B.Push data_addr; d4 |] ]
    @ List.init 450 (fun _ -> [| B.Push data_addr; d4; B.Bin B.Add |]))

(** A register that is neither sp nor fp on [tg]. *)
let plain_reg (tg : Target.t) =
  let rec go r =
    if r = tg.Target.sp || tg.Target.fp = Some r then go (r + 1) else r
  in
  go 0

(** name, program, expected-finding predicate.  Every entry must be
    rejected, with at least one finding satisfying the predicate. *)
let corpus (tg : Target.t) : (string * B.prog * (Bpverify.finding -> bool)) list =
  let underflow = function Bpverify.Underflow _ -> true | _ -> false in
  let wild = function Bpverify.Wild_read _ -> true | _ -> false in
  let bad_result = function Bpverify.Bad_result _ -> true | _ -> false in
  let zero_div = function Bpverify.Zero_divisor _ -> true | _ -> false in
  [
    ("empty program", [||], (function Bpverify.Empty_program -> true | _ -> false));
    ("binop underflow", [| B.Bin B.Add |], underflow);
    ("not underflow", [| B.Not |], underflow);
    ("compare underflow", [| B.Push 1l; B.Cmp { rel = B.Eq; signed = true } |], underflow);
    ( "stack overflow",
      Array.init (B.max_stack + 1) (fun _ -> B.Push 1l),
      (function Bpverify.Overflow _ -> true | _ -> false) );
    ( "bad register",
      [| B.Load_reg 250 |],
      (function Bpverify.Bad_reg _ -> true | _ -> false) );
    ("wild absolute read", [| B.Push 0l; d4 |], wild);
    ( "read past the data segment",
      [| B.Push (Int32.of_int (Ram.Layout.size - 2)); d4 |],
      wild );
    ( "register-relative code read",
      [| B.Load_reg tg.Target.sp; B.Load { space = 'c'; size = 4; signed = false } |],
      wild );
    ("address from a plain register", [| B.Load_reg (plain_reg tg); d4 |], wild);
    ( "frame offset beyond the bound",
      [| B.Load_reg tg.Target.sp; B.Push 100000l; B.Bin B.Add; d4 |],
      wild );
    ( "boolean used as address",
      [| B.Push 1l; B.Push 2l; B.Cmp { rel = B.Eq; signed = true }; d4 |],
      (function Bpverify.Type_clash _ -> true | _ -> false) );
    ( "backward jump",
      [| B.Push 1l; B.Jmp (-2) |],
      (function Bpverify.Backward_jump _ -> true | _ -> false) );
    ( "jump past the end",
      [| B.Push 1l; B.Jmp 100 |],
      (function Bpverify.Jump_out_of_range _ -> true | _ -> false) );
    ( "jump before the start",
      [| B.Push 1l; B.Jz (-5) |],
      (function Bpverify.Jump_out_of_range _ -> true | _ -> false) );
    ( "paths meet at different depths",
      [| B.Push 1l; B.Jz 1; B.Push 2l; B.Push 3l |],
      (function Bpverify.Depth_mismatch _ -> true | _ -> false) );
    ("two results left", [| B.Push 1l; B.Push 2l |], bad_result);
    ("empty stack at the halt", [| B.Jmp 0 |], bad_result);
    ("divide by constant zero", [| B.Push 1l; B.Push 0l; B.Bin B.Divs |], zero_div);
    ("remainder by constant zero", [| B.Push 1l; B.Push 0l; B.Bin B.Remu |], zero_div);
    ( "static cost exceeds fuel",
      cost_bomb,
      (function Bpverify.Cost_bound _ -> true | _ -> false) );
  ]

let test_corpus_rejected () =
  List.iter
    (fun arch ->
      let tg = Target.of_arch arch in
      List.iter
        (fun (name, prog, pred) ->
          let findings = Bpverify.verify tg prog in
          let label = Arch.name arch ^ ": " ^ name in
          check Alcotest.bool (label ^ " rejected") false (findings = []);
          check Alcotest.bool
            (label ^ " expected finding among: "
            ^ String.concat "; " (List.map Bpverify.finding_to_string findings))
            true
            (List.exists pred findings))
        (corpus tg))
    Arch.all

(** What the compiler actually emits must pass: frame-local loads off
    sp/fp, absolute global loads, compares, short-circuit jumps. *)
let test_exemplars_accepted () =
  List.iter
    (fun arch ->
      let tg = Target.of_arch arch in
      let frameish =
        [| B.Load_reg tg.Target.sp; B.Push 8l; B.Bin B.Add; d4; B.Push 10l;
           B.Cmp { rel = B.Lt; signed = true } |]
      in
      let global =
        [| B.Push data_addr; d4; B.Push 0l; B.Cmp { rel = B.Ne; signed = true } |]
      in
      let short_circuit =
        (* a && b compiled with forward jumps: a; jz +5; b-cmp; jmp +1; push 0 *)
        [| B.Push data_addr; d4; B.Jz 5; B.Push data_addr; d4;
           B.Push 0l; B.Cmp { rel = B.Ne; signed = true }; B.Jmp 1; B.Push 0l |]
      in
      List.iter
        (fun (name, p) ->
          check Alcotest.bool
            (Arch.name arch ^ ": " ^ name ^ ": "
            ^ String.concat "; "
                (List.map Bpverify.finding_to_string (Bpverify.verify tg p)))
            true (Bpverify.accepts tg p))
        [ ("frame-local compare", frameish); ("global compare", global);
          ("short-circuit and", short_circuit) ])
    Arch.all

(* --- the evaluator's own belt (unverified programs fault, never hang) --- *)

let benign_env : B.env =
  {
    B.rd_reg = (fun r -> 0x1000 + r);
    rd_pc = (fun () -> 0x2000);
    load = (fun ~space:_ ~addr:_ ~size:_ ~signed:_ -> 7);
  }

let test_eval_faults_are_typed () =
  (match B.eval benign_env [| B.Jmp (-1) |] with
  | Error B.Fuel -> ()
  | r -> Alcotest.failf "infinite loop: expected fuel fault, got %s"
           (match r with Ok b -> string_of_bool b | Error f -> B.fault_to_string f));
  (match B.eval benign_env [| B.Bin B.Add |] with
  | Error B.Stack_underflow -> ()
  | _ -> Alcotest.fail "underflow not faulted");
  (match B.eval benign_env (Array.init (B.max_stack + 1) (fun _ -> B.Push 1l)) with
  | Error B.Stack_overflow -> ()
  | _ -> Alcotest.fail "overflow not faulted");
  (match B.eval benign_env [| B.Push 1l; B.Jmp 100 |] with
  | Error (B.Bad_jump _) -> ()
  | _ -> Alcotest.fail "wild jump not faulted");
  match
    B.eval
      { benign_env with
        B.load = (fun ~space:_ ~addr:_ ~size:_ ~signed:_ -> raise (B.Load_refused "nope")) }
      [| B.Push data_addr; d4 |]
  with
  | Error (B.Load_fault _) -> ()
  | _ -> Alcotest.fail "refused load not faulted"

(** Total semantics: division and remainder by a dynamic zero yield 0. *)
let test_division_by_zero_is_zero () =
  List.iter
    (fun op ->
      match B.eval benign_env [| B.Push 7l; B.Push 0l; B.Bin op |] with
      | Ok false -> ()   (* 0 is "no hit" *)
      | Ok true -> Alcotest.fail "div by zero nonzero"
      | Error f -> Alcotest.failf "div by zero faulted: %s" (B.fault_to_string f))
    [ B.Divs; B.Divu; B.Rems; B.Remu ]

(* --- qcheck ------------------------------------------------------------- *)

let all_binops =
  [ B.Add; B.Sub; B.Mul; B.Divs; B.Divu; B.Rems; B.Remu; B.And; B.Or; B.Xor; B.Shl;
    B.Shrs; B.Shru ]

let gen_insn : B.insn QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun v -> B.Push (Int32.of_int v)) (int_range (-1000) 1000000);
      return (B.Push data_addr);
      map (fun r -> B.Load_reg r) (int_bound 40);
      return B.Load_pc;
      map3
        (fun space size signed -> B.Load { space; size; signed })
        (oneofl [ 'c'; 'd' ]) (oneofl [ 1; 2; 4 ]) bool;
      map (fun op -> B.Bin op) (oneofl all_binops);
      map2
        (fun rel signed -> B.Cmp { rel; signed })
        (oneofl [ B.Eq; B.Ne; B.Lt; B.Le; B.Gt; B.Ge ]) bool;
      return B.Not;
      map (fun o -> B.Jz o) (int_range (-3) 6);
      map (fun o -> B.Jnz o) (int_range (-3) 6);
      map (fun o -> B.Jmp o) (int_range (-3) 6);
    ]

let arb_prog =
  QCheck.make ~print:B.to_string
    QCheck.Gen.(map Array.of_list (list_size (int_bound 20) gen_insn))

(** Soundness: on any program the verifier accepts, the evaluator reaches
    a verdict — it never underflows, overflows, runs out of fuel, or
    jumps wild (and with an env whose loads always answer, never faults
    at all). *)
let prop_accepted_never_traps =
  let tg = Target.of_arch Mips in
  Testkit.qtest "verifier-accepted programs never trap the evaluator" ~count:2000
    arb_prog (fun p ->
      (not (Bpverify.accepts tg p))
      || (match B.eval benign_env p with Ok _ -> true | Error _ -> false))

let prop_encode_decode_roundtrip =
  Testkit.qtest "encode/decode round trip" ~count:500 arb_prog (fun p ->
      match B.decode (B.encode p) with Ok q -> q = p | Error _ -> false)

let prop_decode_total =
  Testkit.qtest "decode never raises on arbitrary bytes" ~count:1000
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> match B.decode s with Ok _ | Error _ -> true)

(* --- differential: the evaluator against the int32 interpreter ---------- *)

(** What a target looks like to a condition: 256 registers, a pc, and a
    memory that answers every load from a pool of edge values, except at
    the addresses it refuses. *)
type world = {
  w_regs : int32 array;
  w_pc : int32;
  w_seed : int;         (** picks each address's value and refusal *)
  w_refuse : int;       (** refuse one address in [w_refuse]; 0: none *)
  w_unsigned : bool;    (** hand the new evaluator registers unsigned *)
  w_fuel : int;         (** steps allowed, often few enough to run out *)
}

let edges =
  [| 0l; 1l; -1l; 31l; 32l; Int32.max_int; Int32.min_int; 0xffl; 0x80l; 0xffffl;
     0x8000l; data_addr |]

let gen_i32 : int32 QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (3, oneofa edges); (2, map Int32.of_int (int_range (-100) 100));
        (2, map (fun (a, b) -> Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b))
              (pair (int_bound 0xffff) (int_bound 0xffff))) ])

let gen_world : world QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun ((regs, pc, seed), (refuse, unsigned, fuel)) ->
        { w_regs = Array.of_list regs; w_pc = pc; w_seed = seed; w_refuse = refuse;
          w_unsigned = unsigned; w_fuel = fuel })
      (pair
         (triple (list_repeat 256 gen_i32) gen_i32 nat)
         (triple (oneofl [ 0; 0; 2; 5 ]) bool (oneof [ return B.max_fuel; int_bound 40 ]))))

(* the raw 32 bits at [addr], or the refusal text *)
let world_word w ~space ~addr : (int, string) result =
  let h = Hashtbl.hash (w.w_seed, space, addr) in
  if w.w_refuse > 0 && h mod w.w_refuse = 0 then Error (Printf.sprintf "fault at %#x" addr)
  else Ok (Int32.to_int edges.(h / 7 mod Array.length edges) lxor (h land 0x1f00))

let extend ~size ~signed v =
  let bits = 8 * size in
  let v = v land ((1 lsl bits) - 1) in
  if signed then Ldb_util.Endian.sext v bits else v

let oracle_env w : Bpcode_oracle.env =
  {
    Bpcode_oracle.rd_reg = (fun r -> w.w_regs.(r land 255));
    rd_pc = (fun () -> w.w_pc);
    load =
      (fun ~space ~addr ~size ~signed ->
        Result.map (fun v -> Int32.of_int (extend ~size ~signed v)) (world_word w ~space ~addr));
  }

(* the same world, with registers and unsigned 4-byte loads handed over
   as they come, not sign-extended: only their low 32 bits may count *)
let new_env w : B.env =
  {
    B.rd_reg =
      (fun r ->
        let v = Int32.to_int w.w_regs.(r land 255) in
        if w.w_unsigned then v land 0xffff_ffff else v);
    rd_pc = (fun () -> Int32.to_int w.w_pc);
    load =
      (fun ~space ~addr ~size ~signed ->
        match world_word w ~space ~addr with
        | Ok v -> extend ~size ~signed v
        | Error m -> raise (B.Load_refused m));
  }

let show_verdict = function
  | Ok b -> string_of_bool b
  | Error f -> "fault: " ^ B.fault_to_string f

let all_cmps =
  List.concat_map
    (fun rel -> [ B.Cmp { rel; signed = true }; B.Cmp { rel; signed = false } ])
    [ B.Eq; B.Ne; B.Lt; B.Le; B.Gt; B.Ge ]

(** A condition shaped as the compiler shapes one: an expression tree in
    postfix, with loads from data addresses and short-circuit ands — the
    verifier accepts most of these. *)
let gen_tree : B.insn list QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun v -> [ B.Push v ]) gen_i32;
        map (fun r -> [ B.Load_reg r ]) (int_bound 15);
        return [ B.Load_pc ];
        map3
          (fun off size signed ->
            [ B.Push (Int32.add data_addr (Int32.of_int off));
              B.Load { space = 'd'; size; signed } ])
          (int_bound 64) (oneofl [ 1; 2; 4 ]) bool ]
  in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (4, map3 (fun a b op -> a @ b @ [ B.Bin op ]) (self (n / 2)) (self (n / 2))
                     (oneofl all_binops));
               (2, map3 (fun a b c -> a @ b @ [ c ]) (self (n / 2)) (self (n / 2))
                     (oneofl all_cmps));
               (1, map (fun a -> a @ [ B.Not ]) (self (n - 1)));
               (1, map2
                     (fun a b ->
                       a @ [ B.Jz (List.length b + 1) ] @ b @ [ B.Jmp 1; B.Push 0l ])
                     (self (n / 2)) (self (n / 2))) ])

(** Any program: {!gen_insn}'s instructions, wild jumps included, with
    edge immediates among them; or a compiler-shaped one. *)
let gen_diff_prog : B.prog QCheck.Gen.t =
  QCheck.Gen.(
    let insn = frequency [ (4, gen_insn); (1, map (fun v -> B.Push v) (oneofa edges)) ] in
    map Array.of_list (frequency [ (1, list_size (int_bound 24) insn); (1, gen_tree) ]))

(** Differential: on any program, verified or not, over any world, the
    evaluator and the int32 interpreter it replaced reach the same
    verdict — the same truth, or the same fault with the same jump
    target or refusal text. *)
let prop_same_as_oracle =
  Testkit.qtest "evaluator = int32 interpreter on any program" ~count:3000
    (QCheck.make ~print:(fun (p, _) -> B.to_string p) QCheck.Gen.(pair gen_diff_prog gen_world))
    (fun (p, w) ->
      let want = Bpcode_oracle.eval ~fuel:w.w_fuel (oracle_env w) p in
      let got = B.eval ~fuel:w.w_fuel (new_env w) p in
      if want = got then true
      else
        QCheck.Test.fail_reportf "oracle %s, evaluator %s" (show_verdict want)
          (show_verdict got))

(** The tree-shaped generator does produce verified programs, so the
    differential covers them as well as hostile ones. *)
let test_trees_mostly_verify () =
  let tg = Target.of_arch Mips in
  let rand = Random.State.make [| 34 |] in
  let progs = List.init 300 (fun _ -> Array.of_list (gen_tree rand)) in
  let accepted = List.length (List.filter (Bpverify.accepts tg) progs) in
  check Alcotest.bool (Printf.sprintf "%d of 300 accepted" accepted) true (accepted >= 150)

(** Edge cases of the 32-bit semantics, pinned absolutely and checked
    against the oracle: each program leaves [a op b = want]. *)
let test_edge_cases () =
  let w =
    { w_regs = Array.make 256 0l; w_pc = 0l; w_seed = 0; w_refuse = 0; w_unsigned = false;
      w_fuel = B.max_fuel }
  in
  let min = Int32.min_int in
  let eq = B.Cmp { rel = B.Eq; signed = true } in
  let cases =
    [ ("-2^31 / -1", [| B.Push min; B.Push (-1l); B.Bin B.Divs; B.Push min; eq |]);
      ("-2^31 rem -1", [| B.Push min; B.Push (-1l); B.Bin B.Rems; B.Push 0l; eq |]);
      ("rem by 0", [| B.Push 7l; B.Push 0l; B.Bin B.Rems; B.Push 0l; eq |]);
      ("remu by 0", [| B.Push min; B.Push 0l; B.Bin B.Remu; B.Push 0l; eq |]);
      ("divu, high bit set", [| B.Push (-2l); B.Push 2l; B.Bin B.Divu; B.Push 0x7fffffffl; eq |]);
      ("divu by a high-bit divisor", [| B.Push (-1l); B.Push min; B.Bin B.Divu; B.Push 1l; eq |]);
      ("remu, high bit set", [| B.Push (-1l); B.Push 10l; B.Bin B.Remu; B.Push 5l; eq |]);
      ("divs, high bit set", [| B.Push (-2l); B.Push 2l; B.Bin B.Divs; B.Push (-1l); eq |]);
      ("shl by 31", [| B.Push 1l; B.Push 31l; B.Bin B.Shl; B.Push min; eq |]);
      ("shl by 32 is shl by 0", [| B.Push 5l; B.Push 32l; B.Bin B.Shl; B.Push 5l; eq |]);
      ("shl by -1 is shl by 31", [| B.Push 1l; B.Push (-1l); B.Bin B.Shl; B.Push min; eq |]);
      ("shrs by 31", [| B.Push min; B.Push 31l; B.Bin B.Shrs; B.Push (-1l); eq |]);
      ("shru by 31", [| B.Push min; B.Push 31l; B.Bin B.Shru; B.Push 1l; eq |]);
      ("shru by 32 is shru by 0", [| B.Push (-1l); B.Push 32l; B.Bin B.Shru; B.Push (-1l); eq |]);
      ("shru by -1 is shru by 31", [| B.Push (-1l); B.Push (-1l); B.Bin B.Shru; B.Push 1l; eq |]);
      ("mul wraps", [| B.Push min; B.Push min; B.Bin B.Mul; B.Push 0l; eq |]);
      ("add wraps", [| B.Push Int32.max_int; B.Push 1l; B.Bin B.Add; B.Push min; eq |]);
      ("0x80000000 < 0 signed",
       [| B.Push min; B.Push 0l; B.Cmp { rel = B.Lt; signed = true } |]);
      ("0x80000000 > 0 unsigned",
       [| B.Push min; B.Push 0l; B.Cmp { rel = B.Gt; signed = false } |]);
      ("push -2^31 is nonzero", [| B.Push min |]) ]
  in
  List.iter
    (fun (name, p) ->
      let want = Bpcode_oracle.eval (oracle_env w) p in
      check Alcotest.string (name ^ ": oracle") "true" (show_verdict want);
      check Alcotest.string (name ^ ": evaluator") "true" (show_verdict (B.eval (new_env w) p)))
    cases

(* --- typed refusal before the wire -------------------------------------- *)

let rpcs (s : Testkit.session) =
  (Transport.stats (Ldb.transport s.Testkit.tg)).Transport.st_rpcs

(** Every corpus program handed to {!Ldb.set_condition} comes back as a
    typed [`Unverified] — and the transport's RPC counter proves nothing
    was sent: rejected programs never reach the wire. *)
let test_refused_before_the_wire () =
  let s = Testkit.debug_session ~arch:Mips [ ("f.c", Testkit.fib_c) ] in
  let addr = Ldb.break_function s.Testkit.d s.Testkit.tg "fib" in
  List.iter
    (fun (name, prog, pred) ->
      let before = rpcs s in
      (match Ldb.set_condition s.Testkit.d s.Testkit.tg ~addr ~text:name prog with
      | Error (`Unverified findings) ->
          check Alcotest.bool (name ^ ": expected finding") true
            (List.exists pred findings)
      | Ok _ -> Alcotest.failf "%s: hostile program accepted" name);
      check Alcotest.int (name ^ ": no RPC issued") before (rpcs s))
    (corpus s.Testkit.tg.Ldb.tg_tdesc)

(* --- differential: nub site vs. debugger site --------------------------- *)

let spin_src =
  {|
int g = 0;

void spin(int n)
{
    int i;
    for (i = 0; i < n; i++)
        g = g + 1;
    printf("%d\n", g);
}

int main(void)
{
    spin(1000);
    return 0;
}
|}

(* [x = a[i & 3]] loads into a temporary, waits out the delay slot with
   a nop, and moves the temporary into [x]'s register just before the
   stopping point of [g = g + x] *)
let pending_load_src =
  {|
int a[4];
int g = 0;

void spin(int n)
{
    register int i;
    register int x;
    for (i = 0; i < n; i++) {
        x = a[i & 3];
        g = g + x;
    }
    printf("%d\n", g);
}

int main(void)
{
    a[0] = 5; a[1] = 7; a[2] = 9; a[3] = 11;
    spin(40);
    return 0;
}
|}

(** SIM-MIPS: rewrite the load, nop, move before the stopping point at
    [addr] as nop, nop, load straight into [x]'s register, so the load
    is still pending when the trap planted there executes. *)
let pend_load (s : Testkit.session) ~addr =
  let p = s.Testkit.proc.Host.hp_proc in
  let t = p.Proc.target and ram = p.Proc.ram in
  let decode a = fst (Target.decode t ~fetch:(Ram.get_u8 ram) a) in
  match (decode (addr - 16), decode (addr - 8), decode (addr - 4)) with
  | Insn.Load (Insn.S32, tmp, base, off), Insn.Nop, Insn.Mov (x, src) when src = tmp ->
      let code =
        String.concat ""
          (List.map (Target.encode t) [ Insn.Nop; Insn.Nop; Insn.Load (Insn.S32, x, base, off) ])
      in
      check Alcotest.int "the rewrite fills the same 16 bytes" 16 (String.length code);
      Ram.blit_in ram ~addr:(addr - 16) code
  | _ -> Alcotest.fail "no load, nop, move before the stopping point"

(** Install [prog] as a condition forced to the debugger site, without
    telling the nub (the fallback path a condition takes when the nub
    refuses or predates the extension). *)
let force_debugger_cond (s : Testkit.session) ~addr ~text prog =
  let bp = Hashtbl.find s.Testkit.tg.Ldb.tg_breaks addr in
  bp.Breakpoint.bp_cond <-
    Some { Breakpoint.c_text = text; c_prog = prog; c_site = `Debugger; c_suppressed = 0 }

let suppressed_at (s : Testkit.session) addr =
  match (Hashtbl.find s.Testkit.tg.Ldb.tg_breaks addr).Breakpoint.bp_cond with
  | Some c -> c.Breakpoint.c_suppressed
  | None -> -1

(** Run [src] to completion with condition [expr] at the statement
    [stmt], evaluated at [site], after [patch] has had its way with the
    code before the breakpoint; return the observed stop sequence (pc,
    value of [i], cumulative suppressed count) and the exit status. *)
let run_site ?(src = spin_src) ?(stmt = "g = g + 1") ?(patch = fun _ ~addr:_ -> ()) arch
    (site : Breakpoint.cond_site) expr : (int * int * int) list * int =
  let s = Testkit.debug_session ~arch [ ("spin.c", src) ] in
  let sess = Eval.start ~arch in
  let addr = Testkit.break_at s ~src ~stmt in
  patch s ~addr;
  let prog = Testkit.compile_ok s sess ~addr expr in
  (match site with
  | `Nub -> Testkit.nub_condition s ~addr ~text:expr prog
  | `Debugger -> force_debugger_cond s ~addr ~text:expr prog);
  let stops = ref [] in
  let rec go () =
    match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
    | Ldb.Stopped { ctx_addr; _ } ->
        let pc = Ldb.read_ctx_pc s.Testkit.tg ctx_addr in
        let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
        let i = Ldb.read_int_var s.Testkit.d s.Testkit.tg fr "i" in
        stops := (pc, i, suppressed_at s addr) :: !stops;
        go ()
    | Ldb.Exited n -> n
    | Ldb.Running -> Alcotest.fail "target still running"
    | Ldb.Detached -> Alcotest.fail "target detached"
  in
  let status = go () in
  (List.rev !stops, status)

let show_stops stops =
  List.map (fun (pc, i, sup) -> Printf.sprintf "%#x i=%d sup=%d" pc i sup) stops

(** The headline equation: on every target, the nub-side and
    debugger-side evaluations of the same compiled condition produce the
    same stop sequence — same pcs, same variable values, same counts of
    silently resumed traps. *)
let test_sites_agree_all_archs () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let nub_stops, nub_status = run_site arch `Nub "i % 300 == 0" in
      let dbg_stops, dbg_status = run_site arch `Debugger "i % 300 == 0" in
      check
        Alcotest.(list string)
        (an ^ " stop sequences identical") (show_stops dbg_stops) (show_stops nub_stops);
      check Alcotest.int (an ^ " exit status") dbg_status nub_status;
      (* and pin the semantics down absolutely, not just cross-site *)
      check
        Alcotest.(list int)
        (an ^ " stops where the condition holds")
        [ 0; 300; 600; 900 ]
        (List.map (fun (_, i, _) -> i) nub_stops);
      check Alcotest.int (an ^ " clean exit") 0 nub_status)
    Arch.all;
  (* SIM-MIPS: the condition reads the destination of a load still
     pending at the trap; both sites must see the loaded value *)
  let run site =
    run_site ~src:pending_load_src ~stmt:"g = g + x" ~patch:pend_load Mips site "x == 9"
  in
  let nub_stops, nub_status = run `Nub in
  let dbg_stops, dbg_status = run `Debugger in
  check
    Alcotest.(list string)
    "mips pending load: stop sequences identical" (show_stops dbg_stops)
    (show_stops nub_stops);
  check Alcotest.int "mips pending load: exit status" dbg_status nub_status;
  check
    Alcotest.(list int)
    "mips pending load: stops where the loaded value is 9"
    (List.init 10 (fun k -> 2 + (4 * k)))
    (List.map (fun (_, i, _) -> i) nub_stops)

(* --- the cost of a miss --------------------------------------------------- *)

(** A condition that loads the nub's context block itself reads what a
    reported stop holds there, although a miss writes no context: here
    "the saved pc is the trap's pc" holds at the very first trap, as it
    does when the debugger evaluates it over a reported stop. *)
let test_context_read_sees_the_trap () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch [ ("spin.c", spin_src) ] in
      let addr = Testkit.break_at s ~src:spin_src ~stmt:"g = g + 1" in
      let tg = s.Testkit.tg.Ldb.tg_tdesc in
      let saved_pc = Int32.of_int (Ram.Layout.context_base + tg.Target.ctx_pc_off) in
      let prog =
        [| B.Push saved_pc; B.Load { space = 'd'; size = 4; signed = false }; B.Load_pc;
           B.Cmp { rel = B.Eq; signed = false } |]
      in
      Testkit.nub_condition s ~addr ~text:"saved pc = pc" prog;
      (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.failf "%s: the condition never held" an);
      check Alcotest.int (an ^ " stopped at the first trap") 0
        (Ldb.read_int_var s.Testkit.d s.Testkit.tg (Testkit.top s) "i");
      check Alcotest.int (an ^ " nothing suppressed") 0 (suppressed_at s addr))
    Arch.all

let forever_src =
  {|
int g = 0;

void spin(void)
{
    register int i;
    i = 0;
    while (1) {
        i = i + 1;
        g = g + 1;
    }
}

int main(void)
{
    spin();
    return 0;
}
|}

(** A never-true condition in an endless loop ends in SIGINT when the
    continue's fuel runs out, and that stop saves the context: the top
    frame's pc and a register-resident local are the CPU's own. *)
let test_fuel_stop_saves_context () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch [ ("forever.c", forever_src) ] in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      s.Testkit.proc.Host.hp_nub.Nub.fuel <- 5_000;
      let addr = Testkit.break_at s ~src:forever_src ~stmt:"g = g + 1" in
      let text = "i < 0" in
      Testkit.nub_condition s ~addr ~text (Testkit.compile_ok s (Eval.start ~arch) ~addr text);
      (match Testkit.ok (Ldb.continue_ d tg) with
      | Ldb.Stopped { signal = Signal.SIGINT; _ } -> ()
      | _ -> Alcotest.failf "%s: expected a SIGINT stop" an);
      let cpu = s.Testkit.proc.Host.hp_proc.Proc.cpu in
      let fr = Ldb.top_frame d tg in
      check Alcotest.int (an ^ " top frame pc = cpu pc") cpu.Cpu.pc fr.Ldb_ldb.Frame.fr_pc;
      let reg =
        match Ldb.resolve d tg fr "i" with
        | Some entry -> (
            match Ldb.location_of d tg fr entry with
            | A.Absolute { space = 'r'; offset } -> offset
            | _ -> Alcotest.failf "%s: i is not in a register" an)
        | None -> Alcotest.failf "%s: i is not visible" an
      in
      check Alcotest.int (an ^ " i = its register")
        (Int32.to_int (Cpu.reg cpu reg))
        (Ldb.read_int_var d tg fr "i");
      check Alcotest.bool (an ^ " traps were resumed silently") true
        (s.Testkit.proc.Host.hp_nub.Nub.suppressed > 0))
    Arch.all

(** A false condition costs the nub a handful of words: the stop_go
    workload's [i % 64 == 0], judged against the live CPU at a trap
    where it is false, allocates at most 48 minor words per evaluation
    on every target (113 with boxed [int32] values). *)
let test_miss_allocation () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = Testkit.debug_session ~arch [ ("spin.c", spin_src) ] in
      let addr = Testkit.break_at s ~src:spin_src ~stmt:"g = g + 1" in
      let text = "i % 64 == 0" in
      let prog = Testkit.compile_ok s (Eval.start ~arch) ~addr text in
      for _ = 1 to 2 do
        match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
        | Ldb.Stopped _ -> ()
        | _ -> Alcotest.failf "%s: expected a stop" an
      done;
      let env = s.Testkit.proc.Host.hp_nub.Nub.cond_env in
      check Alcotest.string (an ^ " a miss at i = 1") "false" (show_verdict (B.eval env prog));
      let calls = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (B.eval env prog : (bool, B.fault) result)
      done;
      let words = (Gc.minor_words () -. before) /. float calls in
      check Alcotest.bool (Printf.sprintf "%s: %.1f words per evaluation, at most 48" an words)
        true (words <= 48.))
    Arch.all

(** The point of shipping the bytecode: deciding the condition
    target-side eliminates the per-trap round trips.  On a 1000-iteration
    loop stopping once, the nub site must use at least 100x fewer RPCs
    for the same stop. *)
let test_nub_site_saves_rpcs () =
  let measure site =
    let s = Testkit.debug_session ~arch:Mips [ ("spin.c", spin_src) ] in
    let sess = Eval.start ~arch:Mips in
    let addr = Testkit.break_at s ~src:spin_src ~stmt:"g = g + 1" in
    let prog = Testkit.compile_ok s sess ~addr "i == 900" in
    (match site with
    | `Nub -> (
        match Ldb.set_condition s.Testkit.d s.Testkit.tg ~addr ~text:"i == 900" prog with
        | Ok `Nub -> ()
        | _ -> Alcotest.fail "nub site unavailable")
    | `Debugger -> force_debugger_cond s ~addr ~text:"i == 900" prog);
    let before = rpcs s in
    (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
    | Ldb.Stopped _ -> ()
    | _ -> Alcotest.fail "expected a stop");
    let used = rpcs s - before in
    let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
    check Alcotest.int "stopped at i == 900" 900
      (Ldb.read_int_var s.Testkit.d s.Testkit.tg fr "i");
    check Alcotest.int "900 traps silently resumed" 900 (suppressed_at s addr);
    used
  in
  let nub_rpcs = measure `Nub in
  let dbg_rpcs = measure `Debugger in
  (* exact counts: the nub site's continue is a handful of RPCs whatever
     the trip count; the debugger site pays five round trips per trap.
     A fetch repeated at one stop is answered from the transport's memo
     and sends no frame. *)
  check Alcotest.int "nub-side RPCs" 3 nub_rpcs;
  check Alcotest.int "debugger-side RPCs: 5 per suppressed trap + 5" ((5 * 900) + 5) dbg_rpcs;
  check Alcotest.bool
    (Printf.sprintf "nub %d RPCs vs debugger %d: at least 100x fewer" nub_rpcs dbg_rpcs)
    true
    (dbg_rpcs >= 100 * nub_rpcs)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "bpverify"
    [
      ( "verifier",
        [ case "hostile corpus rejected on all targets" test_corpus_rejected;
          case "compiler exemplars accepted" test_exemplars_accepted;
          prop_accepted_never_traps ] );
      ( "evaluator",
        [ case "faults are typed, never hangs" test_eval_faults_are_typed;
          case "division by zero is zero" test_division_by_zero_is_zero ] );
      ( "oracle",
        [ prop_same_as_oracle;
          case "tree programs mostly verify" test_trees_mostly_verify;
          case "32-bit edge cases" test_edge_cases ] );
      ( "codec", [ prop_encode_decode_roundtrip; prop_decode_total ] );
      ( "refusal",
        [ case "rejected programs never reach the wire" test_refused_before_the_wire ] );
      ( "differential",
        [ case "nub and debugger sites agree on all targets" test_sites_agree_all_archs;
          case "nub site saves 100x the RPCs" test_nub_site_saves_rpcs ] );
      ( "cost of a miss",
        [ case "a context read sees the trap" test_context_read_sees_the_trap;
          case "fuel exhaustion saves the context" test_fuel_stop_saves_context;
          case "a miss allocates at most 48 words" test_miss_allocation ] );
    ]
