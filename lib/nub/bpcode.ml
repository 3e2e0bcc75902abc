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
    byte-identical: all arithmetic is two's-complement on 32 bits,
    shifts mask their count to 0..31, and division or remainder by zero
    yields 0 (the eBPF convention) rather than trapping.  Loaded values
    are canonical little-endian-decoded 32-bit values on both sides.

    Jumps are relative {e instruction} offsets (not byte offsets) over
    the decoded instruction array, so a jump can never land mid-
    instruction.  Offsets are signed so hostile programs can {e express}
    backward jumps — the verifier rejects them, which is what makes
    termination structural for everything it accepts.

    The evaluator holds every value as an OCaml [int] carrying the
    32-bit value sign-extended (this needs 63-bit ints), and keeps its
    operand stack in an [int array] of {!max_stack} slots made afresh
    for each evaluation.  On the nub a condition allocates that array
    and nothing else.  The encoded form, the limits and the semantics
    are those of the [int32] interpreter it replaced. *)

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

(** A load the stopped target refuses, with the refusal's text. *)
exception Load_refused of string

(** How the evaluator sees the stopped target.  The nub implements this
    over its own RAM and the live, drained CPU; the debugger implements
    it over the saved context through the wire abstract memory — both
    decode values from canonical little-endian bytes, which is what
    makes the two sites agree.  Only the low 32 bits of what these
    return count: a register or a 4-byte load may come back signed or
    unsigned.  A refused load raises {!Load_refused}. *)
type env = {
  rd_reg : int -> int;   (** general register at the stop *)
  rd_pc : unit -> int;   (** pc at the stop *)
  load : space:char -> addr:int -> size:int -> signed:bool -> int;
      (** the [size]-byte value at [addr], sign- or zero-extended *)
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

(* The low 32 bits of [v], sign-extended: the one form a value takes. *)
let[@inline] s32 v = (v lsl 31) asr 31

let[@inline] u32 v = v land 0xffff_ffff

(** [a op b] on 32-bit values: wrap-around, shift counts masked to
    0..31, division or remainder by zero 0.  The verifier folds
    constants with this same function. *)
let arith op a b =
  match op with
  | Add -> s32 (a + b)
  | Sub -> s32 (a - b)
  | Mul -> s32 (a * b)
  | Divs -> if b = 0 then 0 else s32 (a / b)
  | Divu -> if b = 0 then 0 else s32 (u32 a / u32 b)
  | Rems -> if b = 0 then 0 else a mod b
  | Remu -> if b = 0 then 0 else s32 (u32 a mod u32 b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> s32 (a lsl (b land 31))
  | Shrs -> a asr (b land 31)
  | Shru -> s32 (u32 a lsr (b land 31))

(** Does [a rel b] hold, comparing as signed or unsigned 32-bit values? *)
let holds rel ~signed a b =
  let a = if signed then a else u32 a and b = if signed then b else u32 b in
  match rel with
  | Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b
  | Ge -> a >= b

(* One step of [p] at instruction [pc], with [sp] values on [stack] and
   [fuel] steps left.  Each step burns its cost, then pops, then pushes,
   and reports the first hazard it meets as a fault. *)
let rec run env p stack pc sp fuel : (bool, fault) result =
  let n = Array.length p in
  if pc = n then
    (* halted: the program's answer is the top of stack *)
    if sp = 0 then Error Stack_underflow
    else if Array.unsafe_get stack (sp - 1) <> 0 then Ok true
    else Ok false
  else
    let insn = Array.unsafe_get p pc in
    let fuel = fuel - (match insn with Load _ -> load_cost | _ -> 1) in
    if fuel < 0 then Error Fuel
    else
      match insn with
      | Push v -> push env p stack pc sp fuel (Int32.to_int v)
      | Load_reg r -> push env p stack pc sp fuel (env.rd_reg r)
      | Load_pc -> push env p stack pc sp fuel (env.rd_pc ())
      | Load { space; size; signed } -> (
          if sp = 0 then Error Stack_underflow
          else
            let addr = u32 (Array.unsafe_get stack (sp - 1)) in
            match env.load ~space ~addr ~size ~signed with
            | v ->
                Array.unsafe_set stack (sp - 1) (s32 v);
                run env p stack (pc + 1) sp fuel
            | exception Load_refused m -> Error (Load_fault m))
      | Bin op ->
          if sp < 2 then Error Stack_underflow
          else begin
            let a = Array.unsafe_get stack (sp - 2) and b = Array.unsafe_get stack (sp - 1) in
            Array.unsafe_set stack (sp - 2) (arith op a b);
            run env p stack (pc + 1) (sp - 1) fuel
          end
      | Cmp { rel; signed } ->
          if sp < 2 then Error Stack_underflow
          else begin
            let a = Array.unsafe_get stack (sp - 2) and b = Array.unsafe_get stack (sp - 1) in
            Array.unsafe_set stack (sp - 2) (if holds rel ~signed a b then 1 else 0);
            run env p stack (pc + 1) (sp - 1) fuel
          end
      | Not ->
          if sp = 0 then Error Stack_underflow
          else begin
            Array.unsafe_set stack (sp - 1) (if Array.unsafe_get stack (sp - 1) = 0 then 1 else 0);
            run env p stack (pc + 1) sp fuel
          end
      | Jz off ->
          if sp = 0 then Error Stack_underflow
          else if Array.unsafe_get stack (sp - 1) = 0 then jump env p stack pc (sp - 1) fuel off
          else run env p stack (pc + 1) (sp - 1) fuel
      | Jnz off ->
          if sp = 0 then Error Stack_underflow
          else if Array.unsafe_get stack (sp - 1) <> 0 then jump env p stack pc (sp - 1) fuel off
          else run env p stack (pc + 1) (sp - 1) fuel
      | Jmp off -> jump env p stack pc sp fuel off

and push env p stack pc sp fuel v =
  if sp >= max_stack then Error Stack_overflow
  else begin
    Array.unsafe_set stack sp (s32 v);
    run env p stack (pc + 1) (sp + 1) fuel
  end

(* a jump may land on the end exactly (a normal halt), nowhere else
   outside the program *)
and jump env p stack pc sp fuel off =
  let pc' = pc + 1 + off in
  if pc' < 0 || pc' > Array.length p then Error (Bad_jump pc')
  else run env p stack pc' sp fuel

(** Run [p] against [env].  The result is the truth of the final value:
    a program "hits" when it leaves a nonzero value on the stack.  Every
    dynamic hazard — underflow, overflow, fuel exhaustion, wild jump, a
    refused load — is a [fault], never an exception; verified programs
    fault only through [Load_fault], and compiled conditions not even
    that (the verifier confines their reads to mapped segments).  Each
    evaluation has a stack of its own: a debugger-side load can pump
    the nub, which may evaluate a condition of its own meanwhile. *)
let eval ?(fuel = max_fuel) (env : env) (p : prog) : (bool, fault) result =
  run env p (Array.make max_stack 0) 0 0 fuel
