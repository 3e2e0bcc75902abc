(** Static verifier for breakpoint-condition bytecode — the eBPF
    discipline applied to {!Bpcode}: the debugger refuses to ship, and
    the nub refuses to run, any program this module has not proved safe.

    The verifier is an abstract interpreter in the pslint style: one
    forward pass over the instruction array, tracking the exact operand
    stack depth and an abstract value for every slot, merging states at
    jump targets.  Because only forward jumps are accepted, program
    order is already a topological order of the control-flow graph, so a
    single pass sees every predecessor of an instruction before the
    instruction itself, and termination of accepted programs is
    structural — no loop can even be expressed past the verifier.

    What acceptance proves, and the evaluator's faults it rules out:

    - {e bounded stack}: every path reaching an instruction does so at
      one exact depth, within 0..{!Bpcode.max_stack} — no
      [Stack_underflow] or [Stack_overflow];
    - {e confined reads}: every memory read is either an absolute
      address provably inside the mapped code or data segment, or a
      small offset from the stack or frame pointer saved in the stop
      context — no wild reads of unmapped space;
    - {e type-correct operands}: a comparison result (a 0/1 boolean) is
      never dereferenced as an address;
    - {e finite fuel}: the sum of per-instruction costs bounds every
      acyclic path, and it must fit the evaluator's fuel — no [Fuel];
    - {e tame control flow}: every jump lands on an instruction
      boundary in (here, end] — no [Bad_jump], no backward edges.

    The one fault class verification cannot exclude is a refused load
    on the {e live} target (the stack pointer is only known at stop
    time); the evaluator treats it conservatively, and the segment
    bounds above make it unreachable for compiler-produced programs. *)

open Ldb_machine

(* --- findings ----------------------------------------------------------- *)

type finding =
  | Underflow of { at : int; want : int; have : int }
  | Overflow of { at : int; depth : int }
  | Bad_reg of { at : int; reg : int; nregs : int }
  | Wild_read of { at : int; space : char; what : string }
  | Type_clash of { at : int; what : string }
  | Backward_jump of { at : int; target : int }
  | Jump_out_of_range of { at : int; target : int }
  | Depth_mismatch of { at : int; a : int; b : int }
  | Cost_bound of { cost : int; limit : int }
  | Bad_result of { depth : int }
  | Zero_divisor of { at : int }
  | Empty_program

let finding_to_string = function
  | Underflow { at; want; have } ->
      Printf.sprintf "insn %d: stack underflow (needs %d operands, has %d)" at want have
  | Overflow { at; depth } ->
      Printf.sprintf "insn %d: stack overflow (depth %d exceeds %d)" at depth
        Bpcode.max_stack
  | Bad_reg { at; reg; nregs } ->
      Printf.sprintf "insn %d: register %d outside target's 0..%d" at reg (nregs - 1)
  | Wild_read { at; space; what } ->
      Printf.sprintf "insn %d: wild read in space '%c' (%s)" at space what
  | Type_clash { at; what } -> Printf.sprintf "insn %d: type clash (%s)" at what
  | Backward_jump { at; target } ->
      Printf.sprintf "insn %d: backward jump to %d (loops are not verifiable)" at target
  | Jump_out_of_range { at; target } ->
      Printf.sprintf "insn %d: jump to %d outside the program" at target
  | Depth_mismatch { at; a; b } ->
      Printf.sprintf "insn %d: paths meet at stack depths %d and %d" at a b
  | Cost_bound { cost; limit } ->
      Printf.sprintf "static cost %d exceeds the fuel bound %d" cost limit
  | Bad_result { depth } ->
      Printf.sprintf "program ends at stack depth %d, not 1" depth
  | Zero_divisor { at } -> Printf.sprintf "insn %d: division by constant zero" at
  | Empty_program -> "empty program"

(* --- abstract values ----------------------------------------------------- *)

(** One operand-stack slot.  [Cst] and [Regoff] are the shapes addresses
    take (the compiler emits globals as constants and frame locals as
    sp/fp plus a constant); [Bool] is a comparison result; [Num] is
    anything else.  Constants are 32-bit values in the evaluator's
    form, folded with its own {!Bpcode.arith}. *)
type slot =
  | Cst of int
  | Regoff of int * int   (** saved register + compile-time offset *)
  | Bool
  | Num

let slot_lub a b =
  match (a, b) with
  | Cst x, Cst y when x = y -> a
  | Regoff (r, x), Regoff (s, y) when r = s && x = y -> a
  | Bool, Bool -> Bool
  | _ -> Num

(* --- segment bounds ------------------------------------------------------ *)

(** Frame locals live at small offsets from the saved sp/fp; anything
    farther afield must come in as an absolute address the bounds below
    can check. *)
let max_frame_offset = 4096

let seg_bounds (space : char) : int * int =
  let open Ram.Layout in
  if space = 'c' then (code_base, data_base) else (data_base, size)

(** May a load of [size] bytes at abstract address [slot] proceed?
    Findings come back with [at = 0]; the caller stamps the real index. *)
let check_read (tg : Target.t) ~space ~size (addr : slot) : (unit, finding) result =
  match addr with
  | Cst a ->
      let lo, hi = seg_bounds space in
      let a = a land 0xffff_ffff in
      if a >= lo && a + size <= hi then Ok ()
      else
        Error
          (Wild_read
             { at = 0; space; what = Printf.sprintf "address %#x outside %#x..%#x" a lo hi })
  | Regoff (r, off) ->
      let frameish = r = tg.Target.sp || tg.Target.fp = Some r in
      if space <> 'd' then
        Error (Wild_read { at = 0; space; what = "register-relative code read" })
      else if not frameish then
        Error
          (Wild_read
             { at = 0; space;
               what = Printf.sprintf "relative to %s, not sp/fp" (Target.reg_name tg r) })
      else if off < -max_frame_offset || off > max_frame_offset then
        Error
          (Wild_read
             { at = 0; space;
               what = Printf.sprintf "frame offset %d beyond ±%d" off max_frame_offset })
      else Ok ()
  | Bool -> Error (Type_clash { at = 0; what = "boolean used as address" })
  | Num -> Error (Wild_read { at = 0; space; what = "unbounded address" })

let at_of at = function
  | Wild_read w -> Wild_read { w with at }
  | Type_clash t -> Type_clash { t with at }
  | f -> f

(* --- abstract transfer --------------------------------------------------- *)

let abstract_binop op (a : slot) (b : slot) : slot =
  match (op, a, b) with
  | _, Cst x, Cst y -> Cst (Bpcode.arith op x y)
  | Bpcode.Add, Regoff (r, o), Cst c | Bpcode.Add, Cst c, Regoff (r, o) ->
      Regoff (r, Bpcode.arith Bpcode.Add o c)
  | Bpcode.Sub, Regoff (r, o), Cst c -> Regoff (r, Bpcode.arith Bpcode.Sub o c)
  | _ -> Num

(* --- the verifier -------------------------------------------------------- *)

let insn_cost = function Bpcode.Load _ -> Bpcode.load_cost | _ -> 1

(** Verify [p] against the target description.  Returns the (possibly
    empty) list of findings, in program order; an empty list is the
    proof-of-safety the debugger and the nub both insist on. *)
let verify (tg : Target.t) (p : Bpcode.prog) : finding list =
  let n = Array.length p in
  if n = 0 then [ Empty_program ]
  else begin
    let findings = ref [] in
    let found f = findings := f :: !findings in
    (* states.(i): the abstract stack (top first) on entry to insn i, or
       None while unreached; states.(n) is the halt state *)
    let states : slot list option array = Array.make (n + 1) None in
    states.(0) <- Some [];
    let merge ~at target (stack : slot list) =
      match states.(target) with
      | None -> states.(target) <- Some stack
      | Some prev ->
          if List.length prev <> List.length stack then
            found (Depth_mismatch { at; a = List.length prev; b = List.length stack })
          else states.(target) <- Some (List.map2 slot_lub prev stack)
    in
    let nregs = Target.nregs tg in
    for i = 0 to n - 1 do
      match states.(i) with
      | None -> ()   (* unreachable (e.g. after an unconditional jump) *)
      | Some stack ->
          let depth = List.length stack in
          let pop1 k =
            match stack with
            | v :: rest -> k v rest
            | [] -> found (Underflow { at = i; want = 1; have = 0 })
          in
          let pop2 k =
            match stack with
            | b :: a :: rest -> k a b rest
            | _ -> found (Underflow { at = i; want = 2; have = depth })
          in
          let push v rest =
            if List.length rest + 1 > Bpcode.max_stack then
              found (Overflow { at = i; depth = List.length rest + 1 })
            else merge ~at:i (i + 1) (v :: rest)
          in
          let jump_target off k =
            let t = i + 1 + off in
            if t < 0 || t > n then found (Jump_out_of_range { at = i; target = t })
            else if t <= i then found (Backward_jump { at = i; target = t })
            else k t
          in
          (match p.(i) with
          | Bpcode.Push v -> push (Cst (Int32.to_int v)) stack
          | Bpcode.Load_reg r ->
              if r < 0 || r >= nregs then found (Bad_reg { at = i; reg = r; nregs })
              else
                let v =
                  if r = tg.Target.sp || tg.Target.fp = Some r then Regoff (r, 0)
                  else Num
                in
                push v stack
          | Bpcode.Load_pc -> push Num stack
          | Bpcode.Load { space; size; _ } ->
              pop1 (fun addr rest ->
                  (match check_read tg ~space ~size addr with
                  | Ok () -> ()
                  | Error f -> found (at_of i f));
                  push Num rest)
          | Bpcode.Bin op ->
              pop2 (fun a b rest ->
                  (match op with
                  | Bpcode.Divs | Bpcode.Divu | Bpcode.Rems | Bpcode.Remu -> (
                      match b with
                      | Cst 0 -> found (Zero_divisor { at = i })
                      | _ -> ())
                  | _ -> ());
                  push (abstract_binop op a b) rest)
          | Bpcode.Cmp _ -> pop2 (fun _ _ rest -> push Bool rest)
          | Bpcode.Not -> pop1 (fun _ rest -> push Bool rest)
          | Bpcode.Jz off | Bpcode.Jnz off ->
              pop1 (fun _ rest ->
                  jump_target off (fun t -> merge ~at:i t rest);
                  merge ~at:i (i + 1) rest)
          | Bpcode.Jmp off -> jump_target off (fun t -> merge ~at:i t stack))
    done;
    (* the halt state must hold exactly the answer *)
    (match states.(n) with
    | Some [ _ ] -> ()
    | Some stack -> found (Bad_result { depth = List.length stack })
    | None -> found (Bad_result { depth = 0 }));
    (* any acyclic path visits each instruction at most once, so the sum
       of costs bounds every execution the evaluator can take *)
    let cost = Array.fold_left (fun acc insn -> acc + insn_cost insn) 0 p in
    if cost > Bpcode.max_fuel then found (Cost_bound { cost; limit = Bpcode.max_fuel });
    List.rev !findings
  end

(** Convenience: does the verifier accept [p] outright? *)
let accepts (tg : Target.t) (p : Bpcode.prog) : bool = verify tg p = []
