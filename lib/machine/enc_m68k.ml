(** SIM-68020 instruction encoding: variable-width, big-endian, built from
    16-bit words like the real 68020.  The first word holds the shape code
    and two 4-bit register fields; three-register operations take a 2-byte
    extension word, and immediate operations a 4-byte extension.

    The no-op is the real 68020 [nop] (0x4E71) and the trap is the real
    [bkpt #0] (0x4848); both are 2 bytes, so planting a breakpoint is a
    single 16-bit store. *)

open Optab

let arch = Arch.M68k

let nop_word = 0x4E71
let break_word = 0x4848

let word_to_string w =
  let b = Bytes.create 2 in
  Ldb_util.Endian.set_u16 Big b 0 (w land 0xffff);
  Bytes.to_string b

let nop_bytes = word_to_string nop_word
let break_bytes = word_to_string break_word

let three_reg (s : shape) = match s with SAlu _ | SFalu _ | SFcmp _ -> true | _ -> false

(* Shape codes are offset so the high byte of a shape-coded first word can
   never collide with the nop (0x4E71) or bkpt (0x4848) patterns. *)
let code_offset = 0x50
let () = assert (Optab.max_code + code_offset < 0x100)

let length (i : Insn.t) =
  match i with
  | Nop | Break -> 2
  | _ ->
      let s, _, _, _, _ = fields i in
      if has_imm s then 6 else if three_reg s then 4 else 2

let encode (i : Insn.t) =
  match i with
  | Nop -> nop_bytes
  | Break -> break_bytes
  | _ ->
      let s, a, b, c, imm = fields i in
      let w0 = ((code_of_shape s + code_offset) lsl 8) lor ((a land 0xf) lsl 4) lor (b land 0xf) in
      let head = word_to_string w0 in
      if has_imm s then
        head ^ Encoder.be32_to_string (match imm with Some v -> v | None -> 0l)
      else if three_reg s then head ^ word_to_string (c land 0xf)
      else head

let decode ~fetch addr =
  let w0 = Encoder.fetch16_be ~fetch addr in
  if w0 = nop_word then (Insn.Nop, 2)
  else if w0 = break_word then (Insn.Break, 2)
  else begin
    let code = ((w0 lsr 8) land 0xff) - code_offset in
    match shape_of_code code with
    | None -> raise (Bad_encoding (Fmt.str "m68k: bad opcode %#x at %#x" w0 addr))
    | Some s ->
        let a = (w0 lsr 4) land 0xf and b = w0 land 0xf in
        if has_imm s then
          let imm = Encoder.fetch32 ~order:Big ~fetch (addr + 2) in
          (build arch s ~a ~b ~c:0 ~imm, 6)
        else if three_reg s then
          let c = Encoder.fetch16_be ~fetch (addr + 2) land 0xf in
          (build arch s ~a ~b ~c ~imm:0l, 4)
        else (build arch s ~a ~b ~c:0 ~imm:0l, 2)
  end
