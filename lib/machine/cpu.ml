(** The shared execution engine.  One [step] executes the instruction at
    the pc with the shared semantics, decoding it through the target's
    own encoder unless the target's predecode table already holds it.

    SIM-MIPS load delay slots are modelled architecturally: the result of an
    integer load is not visible to the immediately following instruction
    (the assembler's scheduler must fill or pad the slot; the test suite
    exercises programs whose correctness depends on it). *)

open Insn

type event =
  | Running
  | Trap of Signal.t * int  (** signal and an associated code (eg fault addr) *)
  | Sys of int              (** syscall wanting kernel service *)

(* --- predecoded instructions ----------------------------------------------- *)

(** A direct-mapped table of decoded instructions.  An entry holds a pc,
    the eight bytes at that pc when it was decoded (as two {!Ram.raw32}
    words), the instruction and its length.  A hit re-reads the eight
    bytes and compares them, so any write to the instruction — a
    breakpoint planted or cleared, a store from the debugger, a restored
    checkpoint, a relaunch, the program's own store — is a mismatch that
    decodes that one entry again.  Decoding is a pure function of the
    target and the bytes, so every CPU of a target shares one table: a
    relaunched or replay-restored process starts with its decodes. *)
type predecode = {
  shift : int;  (** log2 of the target's instruction unit *)
  pcs : int array;  (** -1 marks an empty slot *)
  lo : int array;  (** the bytes [\[pc, pc+4)] *)
  hi : int array;  (** the bytes [\[pc+4, pc+8)] *)
  insns : Insn.t array;
  lens : int array;
}

let slots = 1024

(** The bytes the check covers; every encoding must fit in them. *)
let max_insn_bytes = 8

let tables =
  List.map
    (fun (t : Target.t) ->
      let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
      ( t.Target.arch,
        { shift = log2 t.Target.insn_unit; pcs = Array.make slots (-1);
          lo = Array.make slots 0; hi = Array.make slots 0;
          insns = Array.make slots Nop; lens = Array.make slots 0 } ))
    Target.all

type t = {
  target : Target.t;
  regs : int32 array;
  fregs : float array;
  mutable pc : int;
  mutable pending_reg : reg;  (** SIM-MIPS delay slot: -1, or the load's register *)
  mutable pending_val : int32;  (** and the value it will receive *)
  mutable icount : int;  (** instructions retired, for benchmarks *)
  decoded : predecode;  (** the target's table *)
}

let create target =
  {
    target;
    regs = Array.make (Target.nregs target) 0l;
    fregs = Array.make (Target.nfregs target) 0.0;
    pc = Ram.Layout.code_base;
    pending_reg = -1;
    pending_val = 0l;
    icount = 0;
    decoded = List.assoc target.Target.arch tables;
  }

let reg cpu r = cpu.regs.(r)
let set_reg cpu r v = cpu.regs.(r) <- v
let freg cpu f = cpu.fregs.(f)
let set_freg cpu f v = cpu.fregs.(f) <- v

(** Is a delayed load still to be committed? *)
let load_pending cpu = cpu.pending_reg >= 0

(** Commit a delayed load (used before capturing a context so the nub never
    sees a half-completed load). *)
let drain cpu =
  if cpu.pending_reg >= 0 then begin
    cpu.regs.(cpu.pending_reg) <- cpu.pending_val;
    cpu.pending_reg <- -1
  end

let i32 = Int32.of_int
let to_addr (v : int32) = Int32.to_int (Int32.logand v 0xffffffffl) land 0xffffffff

let alu op (x : int32) (y : int32) : int32 =
  match op with
  | Add -> Int32.add x y
  | Sub -> Int32.sub x y
  | Mul -> Int32.mul x y
  | Div -> if Int32.equal y 0l then raise Division_by_zero else Int32.div x y
  | Rem -> if Int32.equal y 0l then raise Division_by_zero else Int32.rem x y
  | Divu ->
      if Int32.equal y 0l then raise Division_by_zero
      else
        let u v = Int64.logand (Int64.of_int32 v) 0xffffffffL in
        Int64.to_int32 (Int64.div (u x) (u y))
  | Remu ->
      if Int32.equal y 0l then raise Division_by_zero
      else
        let u v = Int64.logand (Int64.of_int32 v) 0xffffffffL in
        Int64.to_int32 (Int64.rem (u x) (u y))
  | And -> Int32.logand x y
  | Or -> Int32.logor x y
  | Xor -> Int32.logxor x y
  | Shl -> Int32.shift_left x (Int32.to_int y land 31)
  | Shr -> Int32.shift_right x (Int32.to_int y land 31)
  | Slt -> if Int32.compare x y < 0 then 1l else 0l
  | Sltu ->
      let u v = Int64.logand (Int64.of_int32 v) 0xffffffffL in
      if Int64.compare (u x) (u y) < 0 then 1l else 0l

let cond_holds c (x : int32) (y : int32) =
  let cmp = Int32.compare x y in
  match c with
  | Eq -> cmp = 0
  | Ne -> cmp <> 0
  | Lt -> cmp < 0
  | Le -> cmp <= 0
  | Gt -> cmp > 0
  | Ge -> cmp >= 0

let fcond_holds c (x : float) (y : float) =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let load_value ram sz ~unsigned addr : int32 =
  match sz with
  | S8 ->
      let v = Ram.get_u8 ram addr in
      if unsigned then i32 v else i32 (Ldb_util.Endian.sext v 8)
  | S16 ->
      let v = Ram.get_u16 ram addr in
      if unsigned then i32 v else i32 (Ldb_util.Endian.sext v 16)
  | S32 -> Ram.get_u32 ram addr

let store_value ram sz addr (v : int32) =
  match sz with
  | S8 -> Ram.set_u8 ram addr (Int32.to_int v land 0xff)
  | S16 -> Ram.set_u16 ram addr (Int32.to_int v land 0xffff)
  | S32 -> Ram.set_u32 ram addr v

let fload_value ram fsz addr : float =
  match fsz with
  | F32 -> Ram.get_f32 ram addr
  | F64 -> Ram.get_f64 ram addr
  | F80 -> Float80.of_bytes (Ram.read_string ram ~addr ~len:10)

let fstore_value ram fsz addr (v : float) =
  match fsz with
  | F32 -> Ram.set_f32 ram addr v
  | F64 -> Ram.set_f64 ram addr v
  | F80 -> Ram.blit_in ram ~addr (Float80.to_bytes v)

let push cpu ram v =
  let sp = Int32.sub cpu.regs.(cpu.target.Target.sp) 4l in
  cpu.regs.(cpu.target.Target.sp) <- sp;
  Ram.set_u32 ram (to_addr sp) v

(* Save a return address per the target's calling convention. *)
let link cpu ram ret =
  match cpu.target.Target.ra with
  | Some ra -> cpu.regs.(ra) <- i32 ret
  | None -> push cpu ram (i32 ret)

let pop cpu ram =
  let spr = cpu.target.Target.sp in
  let v = Ram.get_u32 ram (to_addr cpu.regs.(spr)) in
  cpu.regs.(spr) <- Int32.add cpu.regs.(spr) 4l;
  v

(* Execute [insn], which is neither [Break] nor [Syscall] and is [len]
   bytes long.  A control transfer sets the pc to its destination less
   [len], which retiring the instruction adds back. *)
let execute cpu ram insn len =
  let t = cpu.target in
  (* Read all source operands before committing any pending load, so the
     delay-slot instruction observes the pre-load register value. *)
  match insn with
  | Li (r, v) ->
      drain cpu;
      cpu.regs.(r) <- v
  | Mov (r, s) ->
      let v = cpu.regs.(s) in
      drain cpu;
      cpu.regs.(r) <- v
  | Alu (op, r, s, u) ->
      let a = cpu.regs.(s) and b = cpu.regs.(u) in
      drain cpu;
      cpu.regs.(r) <- alu op a b
  | Alui (op, r, s, imm) ->
      let a = cpu.regs.(s) in
      drain cpu;
      cpu.regs.(r) <- alu op a imm
  | Load (sz, r, s, off) | Loadu (sz, r, s, off) ->
      let addr = to_addr (Int32.add cpu.regs.(s) off) in
      drain cpu;
      let unsigned = match insn with Loadu _ -> true | _ -> false in
      let v = load_value ram sz ~unsigned addr in
      if Arch.has_load_delay t.Target.arch then begin
        cpu.pending_reg <- r;
        cpu.pending_val <- v
      end
      else cpu.regs.(r) <- v
  | Store (sz, rv, rs, off) ->
      let addr = to_addr (Int32.add cpu.regs.(rs) off) and v = cpu.regs.(rv) in
      drain cpu;
      store_value ram sz addr v
  | Fload (fsz, fd, rs, off) ->
      let addr = to_addr (Int32.add cpu.regs.(rs) off) in
      drain cpu;
      cpu.fregs.(fd) <- fload_value ram fsz addr
  | Fstore (fsz, fv, rs, off) ->
      let addr = to_addr (Int32.add cpu.regs.(rs) off) in
      drain cpu;
      fstore_value ram fsz addr cpu.fregs.(fv)
  | Falu (op, fd, fa, fb) ->
      drain cpu;
      let x = cpu.fregs.(fa) and y = cpu.fregs.(fb) in
      cpu.fregs.(fd) <-
        (match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y)
  | Fcmp (c, r, fa, fb) ->
      drain cpu;
      cpu.regs.(r) <- (if fcond_holds c cpu.fregs.(fa) cpu.fregs.(fb) then 1l else 0l)
  | Fmov (fd, fs) ->
      drain cpu;
      cpu.fregs.(fd) <- cpu.fregs.(fs)
  | Cvtif (fd, rs) ->
      let v = cpu.regs.(rs) in
      drain cpu;
      cpu.fregs.(fd) <- Int32.to_float v
  | Cvtfi (r, fs) ->
      drain cpu;
      cpu.regs.(r) <- Int32.of_float cpu.fregs.(fs)
  | Br (c, rs, rt, addr) ->
      let a = cpu.regs.(rs) and b = cpu.regs.(rt) in
      drain cpu;
      if cond_holds c a b then cpu.pc <- to_addr addr - len
  | Jmp addr ->
      drain cpu;
      cpu.pc <- to_addr addr - len
  | Jr rs ->
      let a = cpu.regs.(rs) in
      drain cpu;
      cpu.pc <- to_addr a - len
  | Call addr ->
      drain cpu;
      link cpu ram (cpu.pc + len);
      cpu.pc <- to_addr addr - len
  | Callr rs ->
      let a = cpu.regs.(rs) in
      drain cpu;
      link cpu ram (cpu.pc + len);
      cpu.pc <- to_addr a - len
  | Ret ->
      drain cpu;
      let dest =
        match t.Target.ra with
        | Some ra -> cpu.regs.(ra)
        | None -> pop cpu ram
      in
      cpu.pc <- to_addr dest - len
  | Push rs ->
      let v = cpu.regs.(rs) in
      drain cpu;
      push cpu ram v
  | Pop r ->
      drain cpu;
      cpu.regs.(r) <- pop cpu ram
  | Nop | Break | Syscall _ -> drain cpu

let retire cpu len =
  cpu.pc <- cpu.pc + len;
  cpu.icount <- cpu.icount + 1

(** Execute [insn], the [len]-byte instruction at the pc.  Returns the
    resulting event; on [Trap], the pc is left at the faulting
    instruction. *)
let exec cpu ram insn len : event =
  let start_pc = cpu.pc in
  match insn with
  | Break ->
      drain cpu;
      Trap (SIGTRAP, start_pc)
  | Syscall n ->
      drain cpu;
      retire cpu len;
      Sys n
  | _ -> (
      match execute cpu ram insn len with
      | () ->
          retire cpu len;
          Running
      | exception Ram.Fault a ->
          drain cpu;
          cpu.pc <- start_pc;
          Trap (SIGSEGV, a)
      | exception Division_by_zero ->
          drain cpu;
          cpu.pc <- start_pc;
          Trap (SIGFPE, start_pc))

(** Execute one instruction, from the predecode table when the eight
    bytes at the pc are the ones its entry was decoded from.  A pc too
    near the top of memory for the check decodes without being cached. *)
let step cpu (ram : Ram.t) : event =
  let pc = cpu.pc and tb = cpu.decoded in
  let slot = (pc lsr tb.shift) land (slots - 1) in
  let cacheable = pc >= 0 && pc <= Ram.size ram - max_insn_bytes in
  if
    cacheable && tb.pcs.(slot) = pc
    && tb.lo.(slot) = Ram.raw32 ram pc
    && tb.hi.(slot) = Ram.raw32 ram (pc + 4)
  then exec cpu ram tb.insns.(slot) tb.lens.(slot)
  else
    match Target.decode cpu.target ~fetch:(Ram.get_u8 ram) pc with
    | exception Ram.Fault _ -> Trap (SIGSEGV, pc)
    | exception Optab.Bad_encoding _ -> Trap (SIGILL, pc)
    | insn, len ->
        if cacheable && len <= max_insn_bytes then begin
          tb.pcs.(slot) <- pc;
          tb.lo.(slot) <- Ram.raw32 ram pc;
          tb.hi.(slot) <- Ram.raw32 ram (pc + 4);
          tb.insns.(slot) <- insn;
          tb.lens.(slot) <- len
        end;
        exec cpu ram insn len
