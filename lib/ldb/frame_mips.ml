(** SIM-MIPS stack frames.

    The MIPS has no frame pointer, so this is the largest machine-dependent
    module: the virtual frame pointer is reconstructed as sp + frame size,
    with frame sizes taken from the runtime procedure table in the target's
    address space (via the linker interface), which works even for
    procedures without debugging symbols.  The virtual frame pointer and
    the program counter are the "extra registers" — aliases for immediate
    locations, not for locations in target memory. *)

open Ldb_machine
module A = Ldb_amemory.Amemory

let arch = Arch.Mips

let sp_reg = (Target.of_arch arch).Target.sp
let ra_reg = 31

(** Build a frame given its pc, sp, frame size and alias table, wiring up
    the walk to the calling frame. *)
let rec make (q : Frame.query) ~pc ~sp ~fsize ~proc ~aliases ~level : Frame.t =
  let vfp = sp + fsize in
  let aliases = Frame.alias aliases 'x' 1 (Frame.imm_i32 vfp) in
  {
    Frame.fr_pc = pc;
    fr_base = vfp;
    fr_sp = sp;
    fr_level = level;
    fr_mem = Frame.build_dag q.Frame.q_target q.Frame.q_wire aliases;
    fr_proc = proc;
    fr_down = (fun () -> down q ~fsize ~vfp ~proc ~aliases ~level);
  }

(** Walk to the calling frame: the return address lives at vfp-4 (the ra
    save slot the prologue uses), and the caller's sp is this frame's vfp. *)
and down (q : Frame.query) ~fsize ~vfp ~proc ~aliases ~level : Frame.t option =
  let info = Option.map q.Frame.q_proc_info proc in
  let ra_off =
    match info with
    | Some pi -> pi.Frame.pi_ra_offset - fsize (* relative to vfp *)
    | None -> -4
  in
  let ret_pc = Frame.fetch_word q (vfp + ra_off) in
  if ret_pc = 0 then None
  else
    match q.Frame.q_caller ~pc:ret_pc with
    | None -> None
    | caller ->
        let caller_sp = vfp in
        let caller_fsize = Frame.frame_size_at q ~pc:ret_pc caller in
        let a = Frame.alias aliases 'x' 0 (Frame.imm_i32 ret_pc) in
        let a = Frame.alias a 'r' sp_reg (Frame.imm_i32 caller_sp) in
        (* the caller's own return address was saved in its frame *)
        let a = Frame.alias a 'r' ra_reg (A.absolute 'd' (caller_sp + caller_fsize - 4)) in
        (* register variables the callee saved: alias to the save slots *)
        let a = Frame.apply_saved_regs a ~callee_base:vfp info in
        Some
          (make q ~pc:ret_pc ~sp:caller_sp ~fsize:caller_fsize ~proc:caller ~aliases:a
             ~level:(level + 1))

(** The topmost frame of a stopped target, from the context the nub saved. *)
let top (q : Frame.query) ~ctx_addr : Frame.t =
  let target = q.Frame.q_target in
  let pc = Frame.fetch_word q (ctx_addr + target.Target.ctx_pc_off) in
  let sp = Frame.fetch_word q (ctx_addr + target.Target.ctx_reg_off sp_reg) in
  let aliases = Frame.context_aliases target ~ctx_addr in
  let proc = q.Frame.q_proc ~pc in
  make q ~pc ~sp ~fsize:(Frame.frame_size_at q ~pc proc) ~proc ~aliases ~level:0
