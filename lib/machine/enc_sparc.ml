(** SIM-SPARC instruction encoding: fixed 4-byte big-endian words like
    SIM-MIPS, but with a different field layout — register fields live in
    the top bits, the shape code sits in bits 9..16, and the low 9 bits hold
    a format tag (0x1CA).  The no-op is the real SPARC [nop] (0x01000000)
    and the trap is the real [ta 1] (0x91D02001). *)

open Optab

let arch = Arch.Sparc

let format_tag = 0x1CA
let nop_word = 0x01000000l
let break_word = 0x91D02001l

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
  Int32.logor
    (Int32.logor (a <| 27) (b <| 22))
    (Int32.logor (c <| 17) (Int32.logor (code <| 9) (Int32.of_int format_tag)))

let encode (i : Insn.t) =
  match i with
  | Nop -> nop_bytes
  | Break -> break_bytes
  | _ ->
      let s, a, b, c, imm = fields i in
      let head = Encoder.be32_to_string (pack_word (code_of_shape s) a b c) in
      (match imm with None -> head | Some v -> head ^ Encoder.be32_to_string v)

let decode ~fetch addr =
  let w0 = Encoder.fetch32 ~order:Big ~fetch addr in
  if Int32.equal w0 nop_word then (Insn.Nop, 4)
  else if Int32.equal w0 break_word then (Insn.Break, 4)
  else if Int32.to_int (Int32.logand w0 0x1ffl) <> format_tag then
    raise (Bad_encoding (Fmt.str "sparc: bad format %#lx at %#x" w0 addr))
  else begin
    let code = Int32.to_int (Int32.shift_right_logical w0 9) land 0xff in
    let field sh = Int32.to_int (Int32.shift_right_logical w0 sh) land 0x1f in
    match shape_of_code code with
    | None -> raise (Bad_encoding (Fmt.str "sparc: bad opcode %#lx at %#x" w0 addr))
    | Some s ->
        let a = field 27 and b = field 22 and c = field 17 in
        if has_imm s then
          let imm = Encoder.fetch32 ~order:Big ~fetch (addr + 4) in
          (build arch s ~a ~b ~c ~imm, 8)
        else (build arch s ~a ~b ~c ~imm:0l, 4)
  end
