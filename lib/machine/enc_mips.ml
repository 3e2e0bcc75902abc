(** SIM-MIPS instruction encoding: fixed 4-byte big-endian words; the shape
    code occupies the top byte and three 5-bit register fields follow.
    Instructions that carry a 32-bit immediate take a second payload word
    (the analogue of the real MIPS lui/ori expansion for wide constants).

    The no-op is the all-zeros word and the trap is 0x0000000D — the real
    R3000 [nop] and [break] encodings. *)

open Optab

let arch = Arch.Mips

let nop_word = 0x00000000l
let break_word = 0x0000000Dl

let nop_bytes = Encoder.be32_to_string nop_word
let break_bytes = Encoder.be32_to_string break_word

let length (i : Insn.t) =
  match i with
  | Nop | Break -> 4
  | _ ->
      let s, _, _, _, _ = fields i in
      if has_imm s then 8 else 4

let pack_word code a b c =
  let ( <| ) x s = Int32.shift_left (Int32.of_int x) s in
  Int32.logor (code <| 24) (Int32.logor (a <| 19) (Int32.logor (b <| 14) (c <| 9)))

let encode (i : Insn.t) =
  match i with
  | Nop -> nop_bytes
  | Break -> break_bytes
  | _ ->
      let s, a, b, c, imm = fields i in
      let w0 = pack_word (code_of_shape s) a b c in
      let head = Encoder.be32_to_string w0 in
      (match imm with None -> head | Some v -> head ^ Encoder.be32_to_string v)

let decode ~fetch addr =
  let w0 = Encoder.fetch32 ~order:Big ~fetch addr in
  if Int32.equal w0 nop_word then (Insn.Nop, 4)
  else if Int32.equal w0 break_word then (Insn.Break, 4)
  else begin
    let code = Int32.to_int (Int32.shift_right_logical w0 24) land 0xff in
    let field sh = Int32.to_int (Int32.shift_right_logical w0 sh) land 0x1f in
    match shape_of_code code with
    | None -> raise (Bad_encoding (Fmt.str "mips: bad opcode %#lx at %#x" w0 addr))
    | Some s ->
        let a = field 19 and b = field 14 and c = field 9 in
        if has_imm s then
          let imm = Encoder.fetch32 ~order:Big ~fetch (addr + 4) in
          (build arch s ~a ~b ~c ~imm, 8)
        else (build arch s ~a ~b ~c ~imm:0l, 4)
  end
