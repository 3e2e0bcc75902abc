(** The client interface (Sec. 6, 7.1): an event-driven layer above the
    debugger, of the kind the paper argues gdb and dbx should export for
    user interfaces and higher-level tools (dbxtool, Dalek, event-action
    debugging).

    Conditional breakpoints fall out as the special case the paper notes:
    an event handler that evaluates a predicate in the stopped frame and
    silently resumes when it is false. *)

open Ldb_machine

type event =
  | Ev_breakpoint of { addr : int; frame : Frame.t }
  | Ev_signal of { signal : Signal.t; code : int; frame : Frame.t }
  | Ev_exit of int

type decision =
  | Resume  (** continue the target *)
  | Pause   (** hand control back to the caller *)

type t = {
  d : Ldb.t;
  tg : Ldb.target;
  mutable conditions : (int * (Frame.t -> bool)) list;
      (** per-address breakpoint predicates *)
}

let create (d : Ldb.t) (tg : Ldb.target) : t = { d; tg; conditions = [] }

(** Plant a conditional breakpoint: the target only "stops" (from the
    client's point of view) when [cond] holds in the stopped frame. *)
let break_when (c : t) ~(addr : int) (cond : Frame.t -> bool) : unit =
  ignore (Breakpoint.plant c.tg.Ldb.tg_breaks c.tg.Ldb.tg_tdesc c.tg.Ldb.tg_wire ~addr);
  c.conditions <- (addr, cond) :: List.remove_assoc addr c.conditions

(** Classify the current stop as an event. *)
let classify (c : t) : event =
  match c.tg.Ldb.tg_state with
  | Ldb.Exited n -> Ev_exit n
  | Ldb.Stopped { signal; code; ctx_addr } ->
      let frame = Ldb.top_frame c.d c.tg in
      let pc = Int32.to_int (Ldb_amemory.Amemory.fetch_i32 c.tg.Ldb.tg_wire
          (Ldb_amemory.Amemory.absolute 'd' (ctx_addr + c.tg.Ldb.tg_tdesc.Target.ctx_pc_off)))
      in
      if Breakpoint.is_breakpoint_fault c.tg.Ldb.tg_breaks ~signal ~pc then
        Ev_breakpoint { addr = pc; frame }
      else Ev_signal { signal; code; frame }
  | _ -> Ev_exit (-1)

(** Drive the target, delivering events to [handler] until it asks to
    pause or the target exits.  Breakpoints whose condition is false are
    resumed without consulting the handler. *)
let run (c : t) ~(handler : event -> decision) : event =
  let rec loop () =
    match Ldb.continue_ c.d c.tg with
    | Error (`Dead_process m) -> failwith m
    | Ok (Ldb.Exited n) ->
        let ev = Ev_exit n in
        ignore (handler ev);
        ev
    | Ok (Ldb.Stopped _) -> (
        let ev = classify c in
        let pass =
          match ev with
          | Ev_breakpoint { addr; frame } -> (
              match List.assoc_opt addr c.conditions with
              | Some cond -> cond frame
              | None -> true)
          | _ -> true
        in
        if not pass then loop ()
        else match handler ev with Resume -> loop () | Pause -> ev)
    | Ok _ -> classify c
  in
  loop ()

(* --- data watchpoints --------------------------------------------------- *)

(** Run until the 32-bit word at [addr] changes (a software watchpoint,
    implemented by single-stepping — slow, as on real debuggers without
    hardware assistance).  Returns the event at the instruction after the
    modification, or the exit/fault that ended the run. *)
let watch (c : t) ~(addr : int) ?(limit = 500_000) () : event =
  let read () =
    Ldb_amemory.Amemory.fetch_i32 c.tg.Ldb.tg_wire (Ldb_amemory.Amemory.absolute 'd' addr)
  in
  let initial = read () in
  let rec go n =
    if n >= limit then failwith "watch: no modification within the step budget"
    else
      match Ldb.step_instruction c.d c.tg with
      | Ok (Ldb.Stopped { signal = SIGTRAP; code = 1; _ }) ->
          if read () <> initial then classify c else go (n + 1)
      | Ok (Ldb.Exited code) -> Ev_exit code
      | Ok (Ldb.Stopped _) -> classify c
      | Error (`Dead_process m) -> failwith m
      | Ok _ -> Ev_exit (-1)
  in
  go 0
