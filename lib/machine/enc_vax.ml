(** SIM-VAX instruction encoding: byte-coded and little-endian, like the
    real VAX.  One opcode byte, then one byte per register operand, then a
    little-endian 32-bit immediate when present.  Shape codes are offset by
    0x10 so that the single-byte opcodes below 0x10 are free for the real
    VAX [nop] (0x01) and [bpt] (0x03) encodings — planting a breakpoint on
    SIM-VAX is a single byte store. *)

open Optab

let arch = Arch.Vax

let code_offset = 0x10
let nop_byte = 0x01
let break_byte = 0x03

let nop_bytes = String.make 1 (Char.chr nop_byte)
let break_bytes = String.make 1 (Char.chr break_byte)

(* number of register-operand bytes for each shape *)
let nregs_of (s : shape) =
  match s with
  | SLi -> 1
  | SMov -> 2
  | SAlu _ -> 3
  | SAlui _ -> 2
  | SLoad _ | SLoadu _ | SStore _ | SFload _ | SFstore _ -> 2
  | SFalu _ | SFcmp _ -> 3
  | SFmov | SCvtif | SCvtfi -> 2
  | SBr _ -> 2
  | SJmp | SCall -> 0
  | SJr | SCallr -> 1
  | SRet -> 0
  | SPush | SPop -> 1
  | SNop | SBreak -> 0
  | SSyscall -> 1

let length (i : Insn.t) =
  match i with
  | Nop | Break -> 1
  | _ ->
      let s, _, _, _, _ = fields i in
      1 + nregs_of s + if has_imm s then 4 else 0

let encode (i : Insn.t) =
  match i with
  | Nop -> nop_bytes
  | Break -> break_bytes
  | _ ->
      let s, a, b, c, imm = fields i in
      let buf = Buffer.create 8 in
      Buffer.add_char buf (Char.chr (code_of_shape s + code_offset));
      let regs = [| a; b; c |] in
      for k = 0 to nregs_of s - 1 do
        Buffer.add_char buf (Char.chr (regs.(k) land 0xff))
      done;
      (match imm with
      | Some v -> Buffer.add_string buf (Encoder.le32_to_string v)
      | None -> ());
      Buffer.contents buf

let decode ~fetch addr =
  let op = fetch addr in
  if op = nop_byte then (Insn.Nop, 1)
  else if op = break_byte then (Insn.Break, 1)
  else
    match shape_of_code (op - code_offset) with
    | None -> raise (Bad_encoding (Fmt.str "vax: bad opcode %#x at %#x" op addr))
    | Some s ->
        let nr = nregs_of s in
        let reg k = if k < nr then fetch (addr + 1 + k) else 0 in
        let a = reg 0 and b = reg 1 and c = reg 2 in
        if has_imm s then
          let imm = Encoder.fetch32 ~order:Little ~fetch (addr + 1 + nr) in
          (build arch s ~a ~b ~c ~imm, 1 + nr + 4)
        else (build arch s ~a ~b ~c ~imm:0l, 1 + nr)
