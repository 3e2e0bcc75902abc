(** The breakpoint-condition interpreter as it stood before values were
    unboxed: every value an [int32], one closure per step, a load that
    answers with a [result].  Kept word for word as the oracle the
    differential tests hold {!Ldb_nub.Bpcode.eval} to. *)

open Ldb_nub.Bpcode

(** How the evaluator sees the stopped target.  The nub implements this
    over its own RAM and the live, drained CPU; the debugger implements
    it over the saved context through the wire abstract memory — both
    decode values from canonical little-endian bytes, which is what
    makes the two sites agree. *)
type env = {
  rd_reg : int -> int32;   (** general register at the stop *)
  rd_pc : unit -> int32;   (** pc at the stop *)
  load : space:char -> addr:int -> size:int -> signed:bool -> (int32, string) result;
}

(* total int32 arithmetic: wrap-around, masked shifts, div/0 = 0 *)
let eval_binop op (a : int32) (b : int32) : int32 =
  let open Int32 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Divs -> if equal b 0l then 0l else div a b
  | Divu -> if equal b 0l then 0l else unsigned_div a b
  | Rems -> if equal b 0l then 0l else rem a b
  | Remu -> if equal b 0l then 0l else unsigned_rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int (logand b 31l))
  | Shrs -> shift_right a (to_int (logand b 31l))
  | Shru -> shift_right_logical a (to_int (logand b 31l))

let eval_cmp rel ~signed (a : int32) (b : int32) : int32 =
  let c = if signed then Int32.compare a b else Int32.unsigned_compare a b in
  let hit =
    match rel with
    | Eq -> c = 0 | Ne -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0
    | Ge -> c >= 0
  in
  if hit then 1l else 0l

(** Run [p] against [env].  The result is the truth of the final value:
    a program "hits" when it leaves a nonzero value on the stack.  Every
    dynamic hazard — underflow, overflow, fuel exhaustion, wild jump, a
    refused load — is a [fault], never an exception; verified programs
    fault only through [Load_fault], and compiled conditions not even
    that (the verifier confines their reads to mapped segments). *)
let eval ?(fuel = max_fuel) (env : env) (p : prog) : (bool, fault) result =
  let n = Array.length p in
  let stack = Array.make max_stack 0l in
  let exception Fault of fault in
  let sp = ref 0 in
  let push v =
    if !sp >= max_stack then raise (Fault Stack_overflow);
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    if !sp <= 0 then raise (Fault Stack_underflow);
    decr sp;
    stack.(!sp)
  in
  let fuel = ref fuel in
  let burn cost = fuel := !fuel - cost; if !fuel < 0 then raise (Fault Fuel) in
  let jump pc off =
    let pc' = pc + 1 + off in
    (* falling off the end exactly is a normal halt; anywhere else is wild *)
    if pc' < 0 || pc' > n then raise (Fault (Bad_jump pc'));
    pc'
  in
  let rec step pc =
    if pc = n then
      (* halted: the program's answer is the top of stack *)
      if !sp = 0 then raise (Fault Stack_underflow) else pop () <> 0l
    else if pc < 0 || pc > n then raise (Fault (Bad_jump pc))
    else begin
      let next =
        match p.(pc) with
        | Push v -> burn 1; push v; pc + 1
        | Load_reg r -> burn 1; push (env.rd_reg r); pc + 1
        | Load_pc -> burn 1; push (env.rd_pc ()); pc + 1
        | Load { space; size; signed } -> (
            burn load_cost;
            let addr = Int32.to_int (pop ()) land 0xffffffff in
            match env.load ~space ~addr ~size ~signed with
            | Ok v -> push v; pc + 1
            | Error m -> raise (Fault (Load_fault m)))
        | Bin op ->
            burn 1;
            let b = pop () in
            let a = pop () in
            push (eval_binop op a b);
            pc + 1
        | Cmp { rel; signed } ->
            burn 1;
            let b = pop () in
            let a = pop () in
            push (eval_cmp rel ~signed a b);
            pc + 1
        | Not -> burn 1; push (if pop () = 0l then 1l else 0l); pc + 1
        | Jz off -> burn 1; if pop () = 0l then jump pc off else pc + 1
        | Jnz off -> burn 1; if pop () <> 0l then jump pc off else pc + 1
        | Jmp off -> burn 1; jump pc off
      in
      step next
    end
  in
  match step 0 with v -> Ok v | exception Fault f -> Error f
