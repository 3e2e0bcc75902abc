(** The abstract instruction set shared by the four simulated targets.

    Semantics are common; each target supplies its own binary {e encoding}
    (see [Enc_mips] etc.), its own widths, and its own register/calling
    conventions.  This mirrors how the paper's four real targets share one
    compiler IR while differing in machine language. *)

type reg = int
(** General-purpose register number, 0 .. nregs-1.  Register 0 is NOT
    hardwired to zero (unlike the real MIPS); the codegen treats it as an
    ordinary register so the same generator serves all four targets. *)

type freg = int
(** Floating-point register number. *)

type aluop =
  | Add | Sub | Mul | Div | Rem
  | Divu | Remu  (** unsigned division, as every real target provides *)
  | And | Or | Xor
  | Shl | Shr  (** arithmetic right shift *)
  | Slt  (** set if signed less-than *)
  | Sltu (** set if unsigned less-than *)

type cond = Eq | Ne | Lt | Le | Gt | Ge

type size = S8 | S16 | S32
(** Integer access widths for loads and stores. *)

type fsize = F32 | F64 | F80
(** Floating access widths.  F80 is meaningful only on SIM-68020. *)

type faluop = Fadd | Fsub | Fmul | Fdiv

(** One abstract instruction.  Branch and call targets are absolute
    addresses once assembled; the assembler works with symbolic labels and
    resolves them during layout. *)
type t =
  | Li of reg * int32                  (** rd <- imm32 *)
  | Mov of reg * reg                   (** rd <- rs *)
  | Alu of aluop * reg * reg * reg     (** rd <- rs op rt *)
  | Alui of aluop * reg * reg * int32  (** rd <- rs op imm *)
  | Load of size * reg * reg * int32   (** rd <- mem[rs + off], sign-extended *)
  | Loadu of size * reg * reg * int32  (** rd <- mem[rs + off], zero-extended *)
  | Store of size * reg * reg * int32  (** mem[rs + off] <- rv *)
  | Fload of fsize * freg * reg * int32
  | Fstore of fsize * freg * reg * int32
  | Falu of faluop * freg * freg * freg
  | Fcmp of cond * reg * freg * freg   (** rd <- (fa cond fb) ? 1 : 0 *)
  | Fmov of freg * freg
  | Cvtif of freg * reg                (** fd <- float(rs) *)
  | Cvtfi of reg * freg                (** rd <- trunc(fs) *)
  | Br of cond * reg * reg * int32     (** if rs cond rt then pc <- addr *)
  | Jmp of int32                       (** pc <- addr *)
  | Jr of reg                          (** pc <- rs *)
  | Call of int32                      (** link per convention, pc <- addr *)
  | Callr of reg                       (** indirect call *)
  | Ret                                (** return per convention *)
  | Push of reg
  | Pop of reg
  | Nop                                (** stopping-point no-op *)
  | Break                              (** breakpoint trap: raises SIGTRAP *)
  | Syscall of int                     (** simulated-kernel service *)

let aluop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Divu -> "divu" | Remu -> "remu"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Slt -> "slt" | Sltu -> "sltu"

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let size_bytes = function S8 -> 1 | S16 -> 2 | S32 -> 4
let fsize_bytes = function F32 -> 4 | F64 -> 8 | F80 -> 10

let pp ppf (i : t) =
  let r n = Fmt.str "r%d" n and f n = Fmt.str "f%d" n in
  match i with
  | Li (rd, v) -> Fmt.pf ppf "li %s, %ld" (r rd) v
  | Mov (rd, rs) -> Fmt.pf ppf "mov %s, %s" (r rd) (r rs)
  | Alu (op, rd, rs, rt) ->
      Fmt.pf ppf "%s %s, %s, %s" (aluop_name op) (r rd) (r rs) (r rt)
  | Alui (op, rd, rs, v) ->
      Fmt.pf ppf "%si %s, %s, %ld" (aluop_name op) (r rd) (r rs) v
  | Load (sz, rd, rs, off) ->
      Fmt.pf ppf "ld%d %s, %ld(%s)" (8 * size_bytes sz) (r rd) off (r rs)
  | Loadu (sz, rd, rs, off) ->
      Fmt.pf ppf "ld%du %s, %ld(%s)" (8 * size_bytes sz) (r rd) off (r rs)
  | Store (sz, rv, rs, off) ->
      Fmt.pf ppf "st%d %s, %ld(%s)" (8 * size_bytes sz) (r rv) off (r rs)
  | Fload (sz, fd, rs, off) ->
      Fmt.pf ppf "fld%d %s, %ld(%s)" (8 * fsize_bytes sz) (f fd) off (r rs)
  | Fstore (sz, fv, rs, off) ->
      Fmt.pf ppf "fst%d %s, %ld(%s)" (8 * fsize_bytes sz) (f fv) off (r rs)
  | Falu (op, fd, fa, fb) ->
      let n = match op with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv" in
      Fmt.pf ppf "%s %s, %s, %s" n (f fd) (f fa) (f fb)
  | Fcmp (c, rd, fa, fb) -> Fmt.pf ppf "fcmp%s %s, %s, %s" (cond_name c) (r rd) (f fa) (f fb)
  | Fmov (fd, fs) -> Fmt.pf ppf "fmov %s, %s" (f fd) (f fs)
  | Cvtif (fd, rs) -> Fmt.pf ppf "cvtif %s, %s" (f fd) (r rs)
  | Cvtfi (rd, fs) -> Fmt.pf ppf "cvtfi %s, %s" (r rd) (f fs)
  | Br (c, rs, rt, a) -> Fmt.pf ppf "b%s %s, %s, 0x%lx" (cond_name c) (r rs) (r rt) a
  | Jmp a -> Fmt.pf ppf "jmp 0x%lx" a
  | Jr rs -> Fmt.pf ppf "jr %s" (r rs)
  | Call a -> Fmt.pf ppf "call 0x%lx" a
  | Callr rs -> Fmt.pf ppf "callr %s" (r rs)
  | Ret -> Fmt.string ppf "ret"
  | Push rs -> Fmt.pf ppf "push %s" (r rs)
  | Pop rd -> Fmt.pf ppf "pop %s" (r rd)
  | Nop -> Fmt.string ppf "nop"
  | Break -> Fmt.string ppf "break"
  | Syscall n -> Fmt.pf ppf "syscall %d" n

let to_string i = Fmt.str "%a" pp i

(** Does this instruction write [reg] as an integer destination?  Used by the
    SIM-MIPS load-delay scheduler. *)
let writes_reg (i : t) (rg : reg) =
  match i with
  | Li (rd, _) | Mov (rd, _) | Alu (_, rd, _, _) | Alui (_, rd, _, _)
  | Load (_, rd, _, _) | Loadu (_, rd, _, _) | Fcmp (_, rd, _, _)
  | Cvtfi (rd, _) | Pop rd ->
      rd = rg
  | _ -> false

(** Integer registers read by [i]. *)
let reads (i : t) : reg list =
  match i with
  | Li _ | Nop | Break | Ret | Jmp _ | Call _ -> []
  | Mov (_, rs) -> [ rs ]
  | Alu (_, _, rs, rt) -> [ rs; rt ]
  | Alui (_, _, rs, _) -> [ rs ]
  | Load (_, _, rs, _) | Loadu (_, _, rs, _) -> [ rs ]
  | Store (_, rv, rs, _) -> [ rv; rs ]
  | Fload (_, _, rs, _) | Fstore (_, _, rs, _) -> [ rs ]
  | Falu _ | Fmov _ -> []
  | Fcmp _ -> []
  | Cvtif (_, rs) -> [ rs ]
  | Cvtfi _ -> []
  | Br (_, rs, rt, _) -> [ rs; rt ]
  | Jr rs | Callr rs -> [ rs ]
  | Push rs -> [ rs ]
  | Pop _ -> []
  | Syscall _ -> []
