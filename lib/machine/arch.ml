(** The four simulated target architectures.

    They stand in for the paper's MIPS R3000, SPARC, Motorola 68020 and VAX,
    and differ along exactly the axes the paper calls out as sources of
    machine dependence: byte order, presence of a frame pointer, register
    file shape, instruction widths, trap/no-op encodings, and floating-point
    formats (the 68020 has 80-bit extended floats). *)

type t = Mips | Sparc | M68k | Vax

let all = [ Mips; Sparc; M68k; Vax ]

let name = function
  | Mips -> "mips"
  | Sparc -> "sparc"
  | M68k -> "m68k"
  | Vax -> "vax"

let of_name = function
  | "mips" -> Some Mips
  | "sparc" -> Some Sparc
  | "m68k" | "68020" -> Some M68k
  | "vax" -> Some Vax
  | _ -> None

let endian : t -> Ldb_util.Endian.order = function
  | Mips | Sparc | M68k -> Big
  | Vax -> Little

(** General-purpose register count. *)
let nregs = function Mips | Sparc -> 32 | M68k | Vax -> 16

(** Floating-point register count. *)
let nfregs = function Mips | Sparc -> 16 | M68k | Vax -> 8

(** Do loads have an architectural delay slot (result not visible to the next
    instruction)?  True only for SIM-MIPS; the assembler's scheduler must
    fill or pad the slot. *)
let has_load_delay = function Mips -> true | Sparc | M68k | Vax -> false

let pp ppf a = Fmt.string ppf (name a)
let equal (a : t) b = a = b
