(** SIM-VAX stack frames.

    Little-endian, frame pointer in r13; the call/prologue discipline is
    the same push-return-address / link-fp shape as the 68020, but with
    the VAX register file and byte order.  The register memory makes the
    byte-order difference invisible to the rest of the debugger. *)

open Ldb_machine

let arch = Arch.Vax

let target = Target.of_arch arch
let sp_reg = target.Target.sp
let fp_reg = match target.Target.fp with Some r -> r | None -> assert false

let rec make (q : Frame.query) ~pc ~fp ~sp ~proc ~aliases ~level : Frame.t =
  let aliases = Frame.alias aliases 'x' 1 (Frame.imm_i32 fp) in
  {
    Frame.fr_pc = pc;
    fr_base = fp;
    fr_sp = sp;
    fr_level = level;
    fr_mem = Frame.build_dag q.Frame.q_target q.Frame.q_wire aliases;
    fr_proc = proc;
    fr_down = (fun () -> down q ~fp ~proc ~aliases ~level);
  }

and down (q : Frame.query) ~fp ~proc ~aliases ~level : Frame.t option =
  let caller_fp = Frame.fetch_word q fp in
  let ret_pc = Frame.fetch_word q (fp + 4) in
  if ret_pc = 0 || caller_fp = 0 then None
  else
    match q.Frame.q_caller ~pc:ret_pc with
    | None -> None
    | caller ->
        let a = Frame.alias aliases 'x' 0 (Frame.imm_i32 ret_pc) in
        let a = Frame.alias a 'r' fp_reg (Frame.imm_i32 caller_fp) in
        let a = Frame.alias a 'r' sp_reg (Frame.imm_i32 (fp + 8)) in
        let a =
          Frame.apply_saved_regs a ~callee_base:fp (Option.map q.Frame.q_proc_info proc)
        in
        Some (make q ~pc:ret_pc ~fp:caller_fp ~sp:(fp + 8) ~proc:caller ~aliases:a ~level:(level + 1))

let top (q : Frame.query) ~ctx_addr : Frame.t =
  let pc = Frame.fetch_word q (ctx_addr + target.Target.ctx_pc_off) in
  let fp = Frame.fetch_word q (ctx_addr + target.Target.ctx_reg_off fp_reg) in
  let sp = Frame.fetch_word q (ctx_addr + target.Target.ctx_reg_off sp_reg) in
  let aliases = Frame.context_aliases target ~ctx_addr in
  make q ~pc ~fp ~sp ~proc:(q.Frame.q_proc ~pc) ~aliases ~level:0
