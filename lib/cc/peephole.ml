(** A small peephole optimizer over the abstract assembly.

    Kept deliberately conservative — it must preserve the debugger's
    invariants: stopping-point no-ops and their labels are never touched,
    and on SIM-MIPS it runs {e before} delay-slot scheduling so the
    scheduler's guarantees still hold.

    Patterns:
    - [mov r, r]                                  -> (dropped)
    - [li rK, imm; alu rD, rS, rK] (rK dead next) -> [alui rD, rS, imm]
    - [jmp L] directly before [L:]                -> (dropped)
    - [mov rA, rB; mov rA, rB]                    -> one copy

    The "rK dead" test is local: rK must be the li's target, used only as
    the second ALU operand, and not an operand or destination of the ALU
    result itself. *)

open Ldb_machine

type stats = { mutable removed : int; mutable folded : int }

(* registers that must not be rewritten: the stack pointer and friends
   keep their instructions intact *)
let fixed_regs (target : Target.t) =
  (target.Target.sp :: (match target.Target.fp with Some r -> [ r ] | None -> []))
  @ (match target.Target.ra with Some r -> [ r ] | None -> [])

(** Does any instruction in [rest] (up to the next label/branch) read [r]
    before writing it?  Conservative: unknown constructs count as reads. *)
let used_later (rest : Asm.text_item list) (r : Insn.reg) =
  let rec go = function
    | [] -> false (* fell off the function: value dead *)
    | Asm.Label _ :: _ -> true (* joined control flow: assume live *)
    | (Asm.Ins i | Asm.InsR (i, _, _)) :: tl ->
        if List.mem r (Insn.reads i) then true
        else if Insn.writes_reg i r then false
        else (
          match i with
          | Insn.Br _ | Insn.Jmp _ | Insn.Jr _ | Insn.Call _ | Insn.Callr _ | Insn.Ret
          | Insn.Break | Insn.Syscall _ ->
              true (* control leaves: assume live *)
          | _ -> go tl)
  in
  go rest

let run (target : Target.t) (items : Asm.text_item list) : Asm.text_item list * stats =
  let stats = { removed = 0; folded = 0 } in
  let fixed = fixed_regs target in
  let rec go (items : Asm.text_item list) acc =
    match items with
    | [] -> List.rev acc
    (* mov r, r *)
    | Asm.Ins (Insn.Mov (a, b)) :: rest when a = b ->
        stats.removed <- stats.removed + 1;
        go rest acc
    (* duplicated copy *)
    | Asm.Ins (Insn.Mov (a1, b1)) :: Asm.Ins (Insn.Mov (a2, b2)) :: rest
      when a1 = a2 && b1 = b2 ->
        stats.removed <- stats.removed + 1;
        go (Asm.Ins (Insn.Mov (a1, b1)) :: rest) acc
    (* jump to the immediately following label *)
    | Asm.InsR (Insn.Jmp _, l1, 0) :: (Asm.Label l2 :: _ as rest) when l1 = l2 ->
        stats.removed <- stats.removed + 1;
        go rest acc
    (* li rK, imm; alu rD, rS, rK  with rK dead afterwards *)
    | Asm.Ins (Insn.Li (rk, imm)) :: Asm.Ins (Insn.Alu (op, rd, rs, rt)) :: rest
      when rt = rk && rs <> rk && rd <> rk
           && (not (List.mem rk fixed))
           && (not (used_later rest rk)) ->
        stats.folded <- stats.folded + 1;
        go rest (Asm.Ins (Insn.Alui (op, rd, rs, imm)) :: acc)
    | item :: rest -> go rest (item :: acc)
  in
  (go items [], stats)
