(** The machine-independent stack-frame abstraction (Sec. 4).

    A frame carries the program counter, the frame base (the virtual frame
    pointer on SIM-MIPS, the frame pointer elsewhere), and the abstract
    memory DAG of Fig. 4 through which every register and memory access for
    that activation travels.  Machine-dependent instances supply only the
    two methods the paper calls out: one that walks down the stack and one
    that builds the next frame's memory (register restoration is expressed
    as the alias table of the next frame). *)

open Ldb_machine
module A = Ldb_amemory.Amemory

exception Error of string

(** Per-procedure information the walkers need, from the symbol table
    (frame size, register-variable save slots). *)
type proc_info = {
  pi_frame_size : int;
  pi_ra_offset : int;
  pi_saved_regs : (int * int) list;
}

(** Everything a machine-dependent walker may consult. *)
type query = {
  q_target : Target.t;
  q_wire : A.t;
  q_frame_size : pc:int -> int option;  (** SIM-MIPS: the RPT via the linker interface *)
  q_proc_info : pc:int -> proc_info option;  (** from the symbol table *)
  q_known_pc : pc:int -> bool;  (** false ends the walk (e.g. the startup stub) *)
}

type t = {
  fr_pc : int;
  fr_base : int;  (** vfp / fp value: FrameBase for the PostScript world *)
  fr_sp : int;
  fr_level : int;
  fr_mem : A.t;  (** the joined memory presented to the rest of the debugger *)
  fr_aliases : (char * int, A.location) Hashtbl.t;
  fr_down : unit -> t option;  (** machine-dependent stack walk *)
}

(* --- shared DAG construction (Fig. 4) ---------------------------------- *)

(** Build wire -> alias -> register -> joined for a given alias table. *)
let build_dag (target : Target.t) (wire : A.t) aliases : A.t =
  let alias_mem = A.alias ~table:aliases wire in
  let reg_mem =
    A.register
      ~spaces:
        [ ('r', A.Int_reg 4); ('x', A.Int_reg 4);
          ('f', A.Float_reg target.Target.ctx_freg_bytes) ]
      alias_mem
  in
  A.joined ~routes:[ ('r', reg_mem); ('f', reg_mem); ('x', reg_mem) ] ~default:wire

(** Alias table for a stopped context: every register aliases its save
    slot in the context area (machine-dependent data; shared code). *)
let context_aliases (target : Target.t) ~ctx_addr : (char * int, A.location) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  for r = 0 to Target.nregs target - 1 do
    Hashtbl.replace tbl ('r', r) (A.absolute 'd' (ctx_addr + target.Target.ctx_reg_off r))
  done;
  for f = 0 to Target.nfregs target - 1 do
    Hashtbl.replace tbl ('f', f) (A.absolute 'd' (ctx_addr + target.Target.ctx_freg_off f))
  done;
  Hashtbl.replace tbl ('x', 0) (A.absolute 'd' (ctx_addr + target.Target.ctx_pc_off));
  tbl

let copy_aliases t = Hashtbl.copy t

let imm_i32 v = A.immediate_i32 (Int32.of_int v)

(* --- typed access through a frame's memory ------------------------------ *)

let fetch_reg fr r = Int32.to_int (A.fetch_i32 fr.fr_mem (A.absolute 'r' r)) land 0xffffffff

(** Saved-register aliases: a register variable of the {e callee} was saved
    in the callee's frame, so in the caller's frame the register aliases
    that save slot; untouched callee-saved registers keep the aliases of
    the called frame (the paper's alias reuse). *)
let apply_saved_regs aliases ~callee_base (saved : (int * int) list) =
  List.iter
    (fun (r, off) -> Hashtbl.replace aliases ('r', r) (A.absolute 'd' (callee_base + off)))
    saved
