(** Breakpoint-condition bytecode: a tiny stack machine the nub can run
    at a trap site to decide whether a conditional breakpoint really hit.

    The design follows the eBPF discipline: programs are compact byte
    strings, the decoder is {e total} (any byte string either decodes to
    a well-formed instruction array or yields [Error] — no exceptions),
    and nothing is executed that the static verifier ({!Bpverify}) has
    not proved safe.  The evaluator still carries a fuel counter and
    checks every step dynamically: verification is a proof, fuel is the
    belt to its suspenders, and a hostile peer who skips verification
    merely earns a fault, never a wedged target.

    Semantics are chosen to be {e total and deterministic} so that the
    debugger-side and nub-side evaluations of the same program are
    byte-identical: all arithmetic is two's-complement on [int32],
    shifts mask their count to 0..31, and division or remainder by zero
    yields 0 (the eBPF convention) rather than trapping.  Loaded values
    are canonical little-endian-decoded int32s on both sides.

    Jumps are relative {e instruction} offsets (not byte offsets) over
    the decoded instruction array, so a jump can never land mid-
    instruction.  Offsets are signed so hostile programs can {e express}
    backward jumps — the verifier rejects them, which is what makes
    termination structural for everything it accepts. *)

open Ldb_util
open Bytecodec

(* --- limits ------------------------------------------------------------ *)

(** Encoded programs are bounded so a corrupted length field cannot
    demand an absurd allocation, and so the verifier's static cost bound
    is meaningful. *)
let max_prog_bytes = 1024

(** Decoded programs are bounded in instruction count. *)
let max_insns = 128

(** Operand-stack slots available to a program. *)
let max_stack = 32

(** Dynamic fuel: total evaluation steps permitted, where a memory load
    costs {!load_cost} steps and everything else costs 1.  The verifier
    proves accepted programs stay under this statically. *)
let max_fuel = 4096

(** Relative cost of a memory load (it crosses the target description
    and possibly a wire). *)
let load_cost = 8

(* --- instructions ------------------------------------------------------ *)

type binop =
  | Add | Sub | Mul
  | Divs | Divu | Rems | Remu   (** division by zero yields 0 *)
  | And | Or | Xor
  | Shl | Shrs | Shru           (** count masked to 0..31 *)

type relop = Eq | Ne | Lt | Le | Gt | Ge

type insn =
  | Push of int32                  (** push an immediate *)
  | Load_reg of int                (** push saved register [r] *)
  | Load_pc                        (** push the saved pc *)
  | Load of { space : char; size : int; signed : bool }
      (** pop an address, push the [size]-byte value at it in [space]
          ('c' or 'd'), sign- or zero-extended to 32 bits *)
  | Bin of binop                   (** pop b, pop a, push a op b *)
  | Cmp of { rel : relop; signed : bool }  (** pop b, pop a, push 0/1 *)
  | Not                            (** pop v, push (v = 0) as 0/1 *)
  | Jz of int                      (** pop v; if v = 0, pc += 1 + offset *)
  | Jnz of int                     (** pop v; if v <> 0, pc += 1 + offset *)
  | Jmp of int                     (** pc += 1 + offset, unconditionally *)

type prog = insn array

(* --- encoding ---------------------------------------------------------- *)

exception Encode_error of string

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Divs -> 3 | Divu -> 4 | Rems -> 5
  | Remu -> 6 | And -> 7 | Or -> 8 | Xor -> 9 | Shl -> 10 | Shrs -> 11
  | Shru -> 12

let binop_of_code = function
  | 0 -> Some Add | 1 -> Some Sub | 2 -> Some Mul | 3 -> Some Divs
  | 4 -> Some Divu | 5 -> Some Rems | 6 -> Some Remu | 7 -> Some And
  | 8 -> Some Or | 9 -> Some Xor | 10 -> Some Shl | 11 -> Some Shrs
  | 12 -> Some Shru | _ -> None

let relop_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let relop_of_code = function
  | 0 -> Some Eq | 1 -> Some Ne | 2 -> Some Lt | 3 -> Some Le | 4 -> Some Gt
  | 5 -> Some Ge | _ -> None

let encode_insn b insn =
  let op = Buffer.add_char b in
  let jump c off =
    if off < -32768 || off > 32767 then
      raise (Encode_error (Printf.sprintf "jump offset %d outside i16" off));
    op c;
    add_u16 b off
  in
  match insn with
  | Push v ->
      op 'P';
      Buffer.add_int32_le b v
  | Load_reg r ->
      if r < 0 || r > 255 then raise (Encode_error "register out of u8 range");
      op 'r';
      add_u8 b r
  | Load_pc -> op 'x'
  | Load { space; size; signed } ->
      if size <> 1 && size <> 2 && size <> 4 then
        raise (Encode_error (Printf.sprintf "load size %d not 1/2/4" size));
      if space <> 'c' && space <> 'd' then
        raise (Encode_error (Printf.sprintf "load space %C" space));
      op 'm';
      op space;
      add_u8 b size;
      add_bool b signed
  | Bin o ->
      op 'a';
      add_u8 b (binop_code o)
  | Cmp { rel; signed } ->
      op 'c';
      add_u8 b (relop_code rel);
      add_bool b signed
  | Not -> op '!'
  | Jz off -> jump 'z' off
  | Jnz off -> jump 'n' off
  | Jmp off -> jump 'j' off

let encode (p : prog) : string =
  if Array.length p > max_insns then
    raise (Encode_error (Printf.sprintf "%d instructions exceed limit %d"
                           (Array.length p) max_insns));
  let b = Buffer.create 64 in
  Array.iter (encode_insn b) p;
  if Buffer.length b > max_prog_bytes then
    raise (Encode_error (Printf.sprintf "%d encoded bytes exceed limit %d"
                           (Buffer.length b) max_prog_bytes));
  Buffer.contents b

(* --- decoding (total) --------------------------------------------------- *)

let i16 c what =
  let v = u16 c what in
  if v >= 0x8000 then v - 0x10000 else v

let decode_insn c : insn =
  match Char.chr (u8 c "opcode") with
  | 'P' -> Push (Int32.of_int (u32 c "push immediate"))
  | 'r' -> Load_reg (u8 c "register number")
  | 'x' -> Load_pc
  | 'm' ->
      let space = Char.chr (u8 c "load space") in
      if space <> 'c' && space <> 'd' then hard "load space %C not 'c'/'d'" space;
      let size = u8 c "load size" in
      if size <> 1 && size <> 2 && size <> 4 then hard "load size %d not 1/2/4" size;
      Load { space; size; signed = bool c "load signedness flag" }
  | 'a' -> (
      let code = u8 c "binop code" in
      match binop_of_code code with
      | Some op -> Bin op
      | None -> hard "binop code %d" code)
  | 'c' -> (
      let code = u8 c "relop code" in
      let signed = bool c "compare signedness flag" in
      match relop_of_code code with
      | Some rel -> Cmp { rel; signed }
      | None -> hard "relop code %d" code)
  | '!' -> Not
  | 'z' -> Jz (i16 c "jump offset")
  | 'n' -> Jnz (i16 c "jump offset")
  | 'j' -> Jmp (i16 c "jump offset")
  | op -> hard "unknown bpcode opcode %C" op

(** Decode a complete program.  Total: any string that is not the exact
    encoding of a program within the size limits yields [Error]. *)
let decode (s : string) : (prog, string) result =
  if String.length s > max_prog_bytes then
    Error (Printf.sprintf "program of %d bytes exceeds limit %d" (String.length s)
             max_prog_bytes)
  else
    Bytecodec.decode
      (fun c ->
        let acc = ref [] in
        let n = ref 0 in
        while remaining c > 0 do
          incr n;
          if !n > max_insns then hard "more than %d instructions" max_insns;
          acc := decode_insn c :: !acc
        done;
        Array.of_list (List.rev !acc))
      s

(* --- printing ----------------------------------------------------------- *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Divs -> "divs" | Divu -> "divu"
  | Rems -> "rems" | Remu -> "remu" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shrs -> "shrs" | Shru -> "shru"

let relop_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let pp_insn ppf = function
  | Push v -> Fmt.pf ppf "push %ld" v
  | Load_reg r -> Fmt.pf ppf "reg %d" r
  | Load_pc -> Fmt.string ppf "pc"
  | Load { space; size; signed } ->
      Fmt.pf ppf "load.%c %d%s" space size (if signed then "s" else "u")
  | Bin op -> Fmt.string ppf (binop_name op)
  | Cmp { rel; signed } ->
      Fmt.pf ppf "cmp.%s%s" (relop_name rel) (if signed then "" else "u")
  | Not -> Fmt.string ppf "not"
  | Jz off -> Fmt.pf ppf "jz %+d" off
  | Jnz off -> Fmt.pf ppf "jnz %+d" off
  | Jmp off -> Fmt.pf ppf "jmp %+d" off

let pp_prog ppf (p : prog) =
  Array.iteri (fun i insn -> Fmt.pf ppf "%3d: %a@\n" i pp_insn insn) p

let to_string (p : prog) = Fmt.str "%a" pp_prog p

(* --- evaluation --------------------------------------------------------- *)

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

type fault =
  | Stack_underflow
  | Stack_overflow
  | Fuel
  | Bad_jump of int        (** target instruction index *)
  | Load_fault of string

let fault_to_string = function
  | Stack_underflow -> "stack underflow"
  | Stack_overflow -> "stack overflow"
  | Fuel -> "out of fuel"
  | Bad_jump pc -> Printf.sprintf "jump to instruction %d" pc
  | Load_fault m -> "load fault: " ^ m

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
