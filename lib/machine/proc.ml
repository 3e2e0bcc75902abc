(** A simulated target process: RAM + CPU + a tiny "kernel" providing the
    services compiled C code needs (exit, printf-style output, abort).

    Signals do not stop the simulation here; [run] simply returns the event.
    The debug nub (lib/nub) wraps a process, installs itself as the signal
    handler, captures contexts, and talks to the debugger. *)

type status =
  | Running
  | Stopped of Signal.t * int  (** signal, associated code (eg fault address) *)
  | Exited of int

type t = {
  target : Target.t;
  ram : Ram.t;
  cpu : Cpu.t;
  mutable status : status;
  stdout : Buffer.t;
  mutable entry : int;  (** address of the startup code *)
}

(** A fresh process of [target], over [ram] (default: a fresh, all-zero
    memory in the target's byte order). *)
let create ?ram (target : Target.t) =
  let ram = match ram with Some r -> r | None -> Ram.create (Target.order target) in
  let cpu = Cpu.create target in
  Cpu.set_reg cpu target.Target.sp (Int32.of_int Ram.Layout.stack_top);
  (match target.Target.fp with
  | Some fp -> Cpu.set_reg cpu fp (Int32.of_int Ram.Layout.stack_top)
  | None -> ());
  { target; ram; cpu; status = Running; stdout = Buffer.create 256; entry = 0 }

let arch p = p.target.Target.arch
let output p = Buffer.contents p.stdout

(* --- kernel services ------------------------------------------------- *)

module Sys_abi = struct
  let exit = 0
  let printf = 1
  let abort = 2
end

let sysarg_word p i = Ram.get_u32 p.ram (Ram.Layout.sysarg_base + (4 * i))
let sysarg_f64 p i = Ram.get_f64 p.ram (Ram.Layout.sysarg_base + (4 * i))

(* A minimal printf: supports %d %u %x %c %s %f %g and %%.  Arguments come
   from the kernel argument block: 4-byte slots, except floats which occupy
   two slots (an 8-byte double). *)
let do_printf p =
  let fmt_ptr = Int32.to_int (sysarg_word p 0) in
  let fmt = Ram.read_cstring p.ram ~addr:fmt_ptr in
  let slot = ref 1 in
  let take_word () =
    let v = sysarg_word p !slot in
    incr slot;
    v
  in
  let take_f64 () =
    let v = sysarg_f64 p !slot in
    slot := !slot + 2;
    v
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 'd' | 'i' -> Buffer.add_string p.stdout (Int32.to_string (take_word ()))
      | 'u' ->
          let v = Int64.logand (Int64.of_int32 (take_word ())) 0xffffffffL in
          Buffer.add_string p.stdout (Int64.to_string v)
      | 'x' ->
          let v = Int64.logand (Int64.of_int32 (take_word ())) 0xffffffffL in
          Buffer.add_string p.stdout (Printf.sprintf "%Lx" v)
      | 'c' -> Buffer.add_char p.stdout (Char.chr (Int32.to_int (take_word ()) land 0xff))
      | 's' ->
          let ptr = Int32.to_int (take_word ()) in
          Buffer.add_string p.stdout (Ram.read_cstring p.ram ~addr:ptr)
      | 'f' -> Buffer.add_string p.stdout (Printf.sprintf "%f" (take_f64 ()))
      | 'g' -> Buffer.add_string p.stdout (Printf.sprintf "%g" (take_f64 ()))
      | '%' -> Buffer.add_char p.stdout '%'
      | other ->
          Buffer.add_char p.stdout '%';
          Buffer.add_char p.stdout other);
      i := !i + 2
    end
    else begin
      Buffer.add_char p.stdout c;
      incr i
    end
  done

let do_syscall p n =
  if n = Sys_abi.exit then p.status <- Exited (Int32.to_int (sysarg_word p 0))
  else if n = Sys_abi.printf then do_printf p
  else if n = Sys_abi.abort then p.status <- Stopped (SIGABRT, 0)
  else p.status <- Stopped (SIGILL, n)

(* --- execution -------------------------------------------------------- *)

(** Execute one instruction.  Faults and breakpoints set the status to
    [Stopped]; the caller (normally the nub) decides what to do next. *)
let step p =
  match p.status with
  | Exited _ | Stopped _ -> ()
  | Running -> (
      match Cpu.step p.cpu p.ram with
      | Cpu.Running -> ()
      | Cpu.Sys n -> do_syscall p n
      | Cpu.Trap (s, code) -> p.status <- Stopped (s, code))

let default_fuel = 50_000_000

(** Run until the process stops, exits, or [fuel] instructions have retired.
    Returns the resulting status ([Running] only on fuel exhaustion) and the
    number of instructions retired — the nub charges condition-driven silent
    resumes against one cumulative budget, so a conditional breakpoint in an
    infinite loop still surfaces as fuel exhaustion rather than a hang. *)
let run_counted ?(fuel = default_fuel) p =
  let n = ref 0 in
  while p.status = Running && !n < fuel do
    step p;
    incr n
  done;
  (p.status, !n)

(** Run until the process stops, exits, or [fuel] instructions have retired.
    Returns the resulting status ([Running] only on fuel exhaustion). *)
let run ?(fuel = default_fuel) p = fst (run_counted ~fuel p)

(** Clear a stop so execution can proceed (the nub uses this when told to
    continue). *)
let set_running p = match p.status with Exited _ -> () | _ -> p.status <- Running

let pc p = p.cpu.Cpu.pc
let set_pc p v = p.cpu.Cpu.pc <- v
