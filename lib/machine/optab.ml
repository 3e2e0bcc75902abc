(** Shape table shared by the four target encoders.

    Every abstract instruction reduces to a {e shape} (operation + static
    subcode) plus up to three register fields and an optional 32-bit
    immediate.  Each target packs these into its own binary format — fixed
    big-endian words on SIM-MIPS/SIM-SPARC (with different field layouts),
    variable-width big-endian words on SIM-68020, byte-coded little-endian
    on SIM-VAX.  The debugger never sees shapes; it sees only the
    machine-dependent bit patterns, widths and byte orders. *)

open Insn

type shape =
  | SLi | SMov
  | SAlu of aluop | SAlui of aluop
  | SLoad of size | SLoadu of size | SStore of size
  | SFload of fsize | SFstore of fsize
  | SFalu of faluop | SFcmp of cond | SFmov
  | SCvtif | SCvtfi
  | SBr of cond | SJmp | SJr | SCall | SCallr | SRet
  | SPush | SPop | SNop | SBreak | SSyscall

let aluops = [ Add; Sub; Mul; Div; Rem; Divu; Remu; And; Or; Xor; Shl; Shr; Slt; Sltu ]
let conds = [ Eq; Ne; Lt; Le; Gt; Ge ]
let sizes = [ S8; S16; S32 ]
let fsizes = [ F32; F64; F80 ]
let faluops = [ Fadd; Fsub; Fmul; Fdiv ]

let all_shapes : shape list =
  [ SLi; SMov ]
  @ List.map (fun o -> SAlu o) aluops
  @ List.map (fun o -> SAlui o) aluops
  @ List.map (fun s -> SLoad s) sizes
  @ List.map (fun s -> SLoadu s) sizes
  @ List.map (fun s -> SStore s) sizes
  @ List.map (fun s -> SFload s) fsizes
  @ List.map (fun s -> SFstore s) fsizes
  @ List.map (fun o -> SFalu o) faluops
  @ List.map (fun c -> SFcmp c) conds
  @ [ SFmov; SCvtif; SCvtfi ]
  @ List.map (fun c -> SBr c) conds
  @ [ SJmp; SJr; SCall; SCallr; SRet; SPush; SPop; SNop; SBreak; SSyscall ]

(* Codes are 1-based so that an all-zero word never decodes as a valid
   shape by accident. *)
let code_of_shape : shape -> int =
  let tbl = Hashtbl.create 97 in
  List.iteri (fun i s -> Hashtbl.replace tbl s (i + 1)) all_shapes;
  fun s -> Hashtbl.find tbl s

let shape_of_code : int -> shape option =
  let arr = Array.of_list all_shapes in
  fun c -> if c >= 1 && c <= Array.length arr then Some arr.(c - 1) else None

let max_code = List.length all_shapes

(** Decompose an instruction into (shape, a, b, c, imm). *)
let fields (i : Insn.t) : shape * int * int * int * int32 option =
  match i with
  | Li (rd, v) -> (SLi, rd, 0, 0, Some v)
  | Mov (rd, rs) -> (SMov, rd, rs, 0, None)
  | Alu (op, rd, rs, rt) -> (SAlu op, rd, rs, rt, None)
  | Alui (op, rd, rs, v) -> (SAlui op, rd, rs, 0, Some v)
  | Load (sz, rd, rs, off) -> (SLoad sz, rd, rs, 0, Some off)
  | Loadu (sz, rd, rs, off) -> (SLoadu sz, rd, rs, 0, Some off)
  | Store (sz, rv, rs, off) -> (SStore sz, rv, rs, 0, Some off)
  | Fload (sz, fd, rs, off) -> (SFload sz, fd, rs, 0, Some off)
  | Fstore (sz, fv, rs, off) -> (SFstore sz, fv, rs, 0, Some off)
  | Falu (op, fd, fa, fb) -> (SFalu op, fd, fa, fb, None)
  | Fcmp (c, rd, fa, fb) -> (SFcmp c, rd, fa, fb, None)
  | Fmov (fd, fs) -> (SFmov, fd, fs, 0, None)
  | Cvtif (fd, rs) -> (SCvtif, fd, rs, 0, None)
  | Cvtfi (rd, fs) -> (SCvtfi, rd, fs, 0, None)
  | Br (c, rs, rt, a) -> (SBr c, rs, rt, 0, Some a)
  | Jmp a -> (SJmp, 0, 0, 0, Some a)
  | Jr rs -> (SJr, rs, 0, 0, None)
  | Call a -> (SCall, 0, 0, 0, Some a)
  | Callr rs -> (SCallr, rs, 0, 0, None)
  | Ret -> (SRet, 0, 0, 0, None)
  | Push rs -> (SPush, rs, 0, 0, None)
  | Pop rd -> (SPop, rd, 0, 0, None)
  | Nop -> (SNop, 0, 0, 0, None)
  | Break -> (SBreak, 0, 0, 0, None)
  | Syscall n -> (SSyscall, n, 0, 0, None)

let has_imm (s : shape) =
  match s with
  | SLi | SAlui _ | SLoad _ | SLoadu _ | SStore _ | SFload _ | SFstore _
  | SBr _ | SJmp | SCall ->
      true
  | _ -> false

exception Bad_encoding of string

(* A decoded register field, refused when [arch]'s register file has no
   such register: an encoding can name more registers than the file holds. *)
let reg arch v =
  if v < Arch.nregs arch then v
  else raise (Bad_encoding (Fmt.str "%s: no register r%d" (Arch.name arch) v))

let freg arch v =
  if v < Arch.nfregs arch then v
  else raise (Bad_encoding (Fmt.str "%s: no float register f%d" (Arch.name arch) v))

(** Recompose an instruction from its packed fields, which are never
    negative.  Raises {!Bad_encoding} on a register field outside
    [arch]'s register files. *)
let build arch (s : shape) ~a ~b ~c ~(imm : int32) : Insn.t =
  let r = reg arch and f = freg arch in
  match s with
  | SLi -> Li (r a, imm)
  | SMov -> Mov (r a, r b)
  | SAlu op -> Alu (op, r a, r b, r c)
  | SAlui op -> Alui (op, r a, r b, imm)
  | SLoad sz -> Load (sz, r a, r b, imm)
  | SLoadu sz -> Loadu (sz, r a, r b, imm)
  | SStore sz -> Store (sz, r a, r b, imm)
  | SFload sz -> Fload (sz, f a, r b, imm)
  | SFstore sz -> Fstore (sz, f a, r b, imm)
  | SFalu op -> Falu (op, f a, f b, f c)
  | SFcmp cd -> Fcmp (cd, r a, f b, f c)
  | SFmov -> Fmov (f a, f b)
  | SCvtif -> Cvtif (f a, r b)
  | SCvtfi -> Cvtfi (r a, f b)
  | SBr cd -> Br (cd, r a, r b, imm)
  | SJmp -> Jmp imm
  | SJr -> Jr (r a)
  | SCall -> Call imm
  | SCallr -> Callr (r a)
  | SRet -> Ret
  | SPush -> Push (r a)
  | SPop -> Pop (r a)
  | SNop -> Nop
  | SBreak -> Break
  | SSyscall -> Syscall a
