(** The debugger proper.

    One [Ldb.t] can debug several targets simultaneously, possibly on
    different architectures; all per-target state lives in target objects
    (Sec. 7), and the single embedded PostScript interpreter serves them
    all — ldb changes architectures by rebinding the machine-dependent
    dictionary on the dictionary stack (Sec. 5).

    Connection mechanisms mirror the paper's: attach to an existing nub
    over a channel (the "network" case), spawn a program under the nub, or
    adopt a faulty process whose nub has preserved its state. *)

open Ldb_machine
module A = Ldb_amemory.Amemory
module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp
module Nub = Ldb_nub.Nub
module Chan = Ldb_nub.Chan
module Proto = Ldb_nub.Proto

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type state =
  | Running
  | Stopped of { signal : Signal.t; code : int; ctx_addr : int }
  | Exited of int
  | Detached

(** What a target sits on: a live nub across a transport, or a core dump
    (a dead process examined post mortem).  Everything above the wire
    abstract memory — frame walkers, the expression server, printing,
    disassembly — is indifferent to which. *)
type conn =
  | Live of Transport.t  (** retrying, reconnectable link to the nub *)
  | Postmortem of Coredump.t

(** The typed error run/step/store operations return on a dead process
    instead of raising: a core dump answers queries, not commands. *)
type dead = [ `Dead_process of string ]

type target = {
  tg_name : string;
  tg_arch : Arch.t;
  tg_tdesc : Target.t;
  tg_conn : conn;
  tg_wire : A.t;
  tg_defs : V.dict;       (** dictionary holding this program's PS definitions *)
  tg_arch_dict : V.dict;  (** machine-dependent PostScript *)
  tg_ops : V.dict;        (** per-target operators: LazyData, GlobalLoc, ... *)
  tg_symtab : Symtab.t;
  tg_linkerif : Linkerif.t;
  tg_breaks : Breakpoint.table;
  tg_can_step : bool;  (** nub offers the single-step protocol extension *)
  mutable tg_state : state;
  mutable tg_core : Core.t option;
      (** the core dump captured as (or after) the target died, or
          fetched at the current stop; dropped when the target runs or
          is written *)
}

(** The live transport under a target; post-mortem targets have none. *)
let transport (tg : target) : Transport.t =
  match tg.tg_conn with
  | Live tr -> tr
  | Postmortem _ -> fail "target %s is a core dump (no transport)" tg.tg_name

let dead_msg tg =
  Printf.sprintf "target %s is dead: examining a core dump (read-only)" tg.tg_name

let is_postmortem tg = match tg.tg_conn with Postmortem _ -> true | Live _ -> false

(** Requests the target's transport has issued; a core dump issues none. *)
let rpcs (tg : target) : int =
  match tg.tg_conn with
  | Live tr -> (Transport.stats tr).Transport.st_rpcs
  | Postmortem _ -> 0

type t = {
  interp : I.t;
  mutable targets : target list;
  mutable arch_dicts : (Arch.t * V.dict) list;
      (** machine-dependent PostScript, interpreted once per architecture
          and shared by every target on it — the dictionaries are
          read-only after interpretation, so sharing is safe *)
}

let create () : t =
  { interp = Ldb_pscript.Ps.create (); targets = []; arch_dicts = [] }

(** Create without loading the shared prelude (startup benchmarking). *)
let create_bare () : t =
  { interp = Ldb_pscript.Ps.create_bare (); targets = []; arch_dicts = [] }

(** Forget a target (a server closing a session; the connection is the
    caller's to shut down first).  Shared image state stays behind for the
    image's other targets. *)
let remove_target (d : t) (tg : target) : unit =
  d.targets <- List.filter (fun t -> t != tg) d.targets

(* --- interpreting in a target's context ---------------------------------- *)

(** Run [f] with the target's definition, architecture, and operator
    dictionaries on the dictionary stack. *)
let with_target (d : t) (tg : target) (f : unit -> 'a) : 'a =
  I.begin_dict d.interp tg.tg_defs;
  I.begin_dict d.interp tg.tg_arch_dict;
  I.begin_dict d.interp tg.tg_ops;
  Fun.protect
    ~finally:(fun () ->
      I.end_dict d.interp;
      I.end_dict d.interp;
      I.end_dict d.interp)
    f

(* --- connecting ------------------------------------------------------------ *)

let read_loader_ps (d : t) ~(defs : V.dict) (loader_ps : string) : V.dict * V.dict =
  I.begin_dict d.interp defs;
  Fun.protect ~finally:(fun () -> I.end_dict d.interp) (fun () ->
      I.run_string d.interp loader_ps);
  let get k =
    match V.dict_get defs k with
    | Some v -> V.to_dict v
    | None -> fail "loader PostScript did not define /%s" k
  in
  (get "__loader", get "__symtab")

(* --- images ---------------------------------------------------------------- *)

(** Everything a debugged program contributes that is independent of any
    particular process running it: the PostScript definitions its loader
    table arrived as, the loader dictionary, and the (demand-driven)
    symbol table with whatever units and indexes queries have forced so
    far.  All of it is a pure function of the loader PostScript, so
    sessions debugging the same program can share one image — forcing a
    unit once serves them all — cached by that text, with [im_hash] as its id. *)
type image = {
  im_hash : string;  (** digest of the loader PostScript, computed once per image *)
  im_loader_ps : string;
  im_defs : V.dict;
  im_loader : V.dict;
  im_symtab : Symtab.t;
}

(** An image's id (MD5 of its loader text): {!load_image} computes it once;
    caches key by the text itself, which a hit need not digest. *)
let image_hash (loader_ps : string) : string = Digest.to_hex (Digest.string loader_ps)

(** Read a program's loader PostScript into a fresh image. *)
let load_image (d : t) ~(loader_ps : string) : image =
  let defs = V.dict_create () in
  let loader, symtab_dict = read_loader_ps d ~defs loader_ps in
  let symtab = Symtab.make ~interp:d.interp ~symtab_dict in
  {
    im_hash = image_hash loader_ps;
    im_loader_ps = loader_ps;
    im_defs = defs;
    im_loader = loader;
    im_symtab = symtab;
  }

(** The machine-dependent dictionary for [arch], interpreted on first use
    and shared by every target on that architecture. *)
let arch_dict_for (d : t) (arch : Arch.t) : V.dict =
  match List.find_opt (fun (a, _) -> Arch.equal a arch) d.arch_dicts with
  | Some (_, dict) -> dict
  | None ->
      let arch_dict = V.dict_create () in
      I.begin_dict d.interp arch_dict;
      Fun.protect ~finally:(fun () -> I.end_dict d.interp) (fun () ->
          I.run_string d.interp (Mdep_ps.source arch));
      d.arch_dicts <- (arch, arch_dict) :: d.arch_dicts;
      arch_dict

let state_of_hello (st : Proto.stop_state) : state =
  match st with
  | Proto.St_running -> Running
  | Proto.St_stopped { signal; code; ctx_addr } ->
      let signal = Option.value ~default:Signal.SIGINT (Signal.of_number signal) in
      Stopped { signal; code; ctx_addr }
  | Proto.St_exited n -> Exited n

(** Install the per-target operators whose behaviour depends on the
    target's loader table and connection. *)
let make_target_ops (d : t) (li : Linkerif.t) : V.dict =
  let ops = V.dict_create () in
  let def name f = V.dict_put ops name (V.op name f) in
  def "LazyData" (fun () ->
      (* anchorname idx -> data location *)
      let idx = I.pop_int d.interp in
      let name = I.pop_str d.interp in
      let addr = Linkerif.lazy_data li ~name ~idx in
      I.push d.interp (V.loc (A.absolute 'd' addr)));
  def "GlobalLoc" (fun () ->
      let name = I.pop_str d.interp in
      I.push d.interp (V.loc (A.absolute 'd' (Linkerif.global_address li name))));
  def "GlobalCodeLoc" (fun () ->
      let name = I.pop_str d.interp in
      I.push d.interp (V.loc (A.absolute 'c' (Linkerif.global_address li name))));
  def "GlobalAddr" (fun () ->
      let name = I.pop_str d.interp in
      I.push d.interp (V.int (Linkerif.global_address li name)));
  ops

(** Check that the anchor symbols named by the symbol table match the
    loader table, ensuring the top-level dictionary matches the object
    code (Sec. 2). *)
let check_anchors (tg : target) =
  match V.dict_get tg.tg_symtab.Symtab.symtab "anchors" with
  | None -> ()
  | Some anchors ->
      Array.iter
        (fun a ->
          let name = V.to_str a in
          try ignore (Linkerif.anchor_address tg.tg_linkerif name)
          with Linkerif.Error _ ->
            fail "symbol table does not match object code: anchor %s missing" name)
        (V.to_arr anchors)

(** Pull the whole serialized core dump across the wire in
    {!Proto.max_core_chunk}-sized windows. *)
let fetch_core_raw (tr : Transport.t) : string =
  let buf = Buffer.create 4096 in
  let rec go offset =
    match Transport.rpc tr (Proto.Dump { offset }) with
    | Proto.Core_chunk { total; offset = off; chunk } ->
        if off <> offset then
          fail "core transfer out of sync: wanted offset %d, nub sent %d" offset off;
        if String.length chunk = 0 && offset < total then
          fail "core transfer stalled at offset %d of %d" offset total;
        Buffer.add_string buf chunk;
        let next = offset + String.length chunk in
        if next >= total then Buffer.contents buf else go next
    | Proto.Nub_error m -> fail "no core dump: %s" m
    | r -> fail "unexpected reply to Dump: %s" (Fmt.str "%a" Proto.pp_reply r)
  in
  go 0

(** Connect to a nub over [chan] using an already-loaded [image] — the
    server's path, where many sessions debugging the same program share
    one image and its forced symbol tables.  The per-process pieces —
    transport, wire abstract memory, linker interface with its caches,
    breakpoint table — are built fresh; everything image-derived is
    shared. *)
let connect_with_image ?deadline ?max_retries (d : t) ~(name : string)
    ~(image : image) (chan : Chan.endpoint) : target =
  let tr = Transport.make ?deadline ?max_retries chan in
  let arch, st, can_step =
    match Transport.rpc tr Proto.Hello with
    | Proto.Hello_reply { arch; state; can_step } -> (
        match Arch.of_name arch with
        | Some a -> (a, state, can_step)
        | None -> fail "nub reports unknown architecture %s" arch)
    | r -> fail "unexpected reply to Hello: %s" (Fmt.str "%a" Proto.pp_reply r)
  in
  if not (Arch.equal image.im_symtab.Symtab.arch arch) then
    fail "symbol table is for %s but the target runs %s"
      (Arch.name image.im_symtab.Symtab.arch) (Arch.name arch);
  (* a store outdates the target's cached dump, as it does the nub's *)
  let on_store = ref ignore in
  let wire =
    A.rpc_wire (fun req ->
        (match req with Proto.Store _ -> !on_store () | _ -> ());
        Transport.rpc tr req)
  in
  let li = Linkerif.make ~arch ~loader:image.im_loader ~wire in
  let tg =
    {
      tg_name = name;
      tg_arch = arch;
      tg_tdesc = Target.of_arch arch;
      tg_conn = Live tr;
      tg_wire = wire;
      tg_defs = image.im_defs;
      tg_arch_dict = arch_dict_for d arch;
      tg_ops = make_target_ops d li;
      tg_symtab = image.im_symtab;
      tg_linkerif = li;
      tg_breaks = Breakpoint.create_table ();
      tg_can_step = can_step;
      tg_state = state_of_hello st;
      tg_core = None;
    }
  in
  on_store := (fun () -> tg.tg_core <- None);
  (* On the way down — deliberate kill/detach, or an RPC finding the link
     dead — grab the core of a fatally-stopped target while (if) the
     channel still answers.  Best-effort by design: a lost link usually
     cannot serve it, and the nub preserves the dump for a reattach. *)
  Transport.set_on_down tr
    (Some
       (fun _reason ->
         match (tg.tg_state, tg.tg_core) with
         | Stopped { signal; _ }, None when Core.fatal_signal signal -> (
             match Core.of_string (fetch_core_raw tr) with
             | Ok (co, _) -> tg.tg_core <- Some co
             | Error _ | (exception Error _) | (exception Transport.Error _) -> ())
         | _ -> ()));
  check_anchors tg;
  d.targets <- tg :: d.targets;
  tg

(** Connect to a nub over [chan], reading the program's loader-table
    PostScript into a private image.  Works for all connection mechanisms:
    the nub end may be a fresh paused process, a long-running faulty one,
    or a process across the simulated network.  [deadline] and
    [max_retries] tune the transport's recovery policy. *)
let connect ?deadline ?max_retries (d : t) ~(name : string) ~(loader_ps : string)
    (chan : Chan.endpoint) : target =
  connect_with_image ?deadline ?max_retries d ~name ~image:(load_image d ~loader_ps)
    chan

(** Force the target's whole symbol table (normally demand-driven: queries
    force only the units they need). *)
let force_symbols (d : t) (tg : target) =
  with_target d tg (fun () -> Symtab.force_all tg.tg_symtab)

(** Force the symbol table of one compilation unit. *)
let force_unit (d : t) (tg : target) ~(file : string) =
  with_target d tg (fun () -> Symtab.force_unit tg.tg_symtab ~file)

(* --- execution control ------------------------------------------------------ *)

let ctx_pc_addr tg ctx_addr = ctx_addr + tg.tg_tdesc.Target.ctx_pc_off

let read_ctx_pc tg ctx_addr =
  Int32.to_int (A.fetch_i32 tg.tg_wire (A.absolute 'd' (ctx_pc_addr tg ctx_addr)))
  land 0xffffffff

let write_ctx_pc tg ctx_addr pc =
  A.store_i32 tg.tg_wire (A.absolute 'd' (ctx_pc_addr tg ctx_addr)) (Int32.of_int pc)

(** Issue a run request ([Continue] or [Step]) and interpret the event
    that answers it.  The transport retries transient faults; the nub's
    duplicate suppression guarantees the target runs at most once no
    matter how many times the request had to be re-sent. *)
let run_rpc (tg : target) (req : Proto.request) : state =
  tg.tg_core <- None;
  let st =
    match Transport.rpc (transport tg) req with
    | Proto.Event { signal; code; ctx_addr } ->
        let signal = Option.value ~default:Signal.SIGINT (Signal.of_number signal) in
        Stopped { signal; code; ctx_addr }
    | Proto.Cond_hit { signal; code; ctx_addr; suppressed } ->
        (* a nub-evaluated condition came up true; credit the traps the
           nub resumed silently to the breakpoint's own count *)
        let signal = Option.value ~default:Signal.SIGINT (Signal.of_number signal) in
        (match Hashtbl.find_opt tg.tg_breaks (read_ctx_pc tg ctx_addr) with
        | Some { Breakpoint.bp_cond = Some c; _ } ->
            c.Breakpoint.c_suppressed <- c.Breakpoint.c_suppressed + suppressed
        | _ -> ());
        Stopped { signal; code; ctx_addr }
    | Proto.Exit_event n -> Exited n
    | r -> fail "unexpected reply while running: %s" (Fmt.str "%a" Proto.pp_reply r)
  in
  tg.tg_state <- st;
  st

(* The execution-control entry points come in two layers: [_exn] versions
   raising {!Error} (internal — continue/step compose), and the public
   API, which returns [Error (`Dead_process _)] on a post-mortem target
   instead of raising: a debugger script iterating "continue until exit"
   must be able to see, typedly, that there is nothing left to run. *)

(** Execute exactly one target instruction (the nub's Step extension). *)
let single_step_exn (tg : target) : state =
  if not tg.tg_can_step then
    fail "target %s: this nub does not support single-stepping" tg.tg_name;
  (match tg.tg_state with
  | Stopped _ -> ()
  | _ -> fail "target %s is not stopped" tg.tg_name);
  run_rpc tg Proto.Step

(** Leave the breakpoint the target is stopped at, if any, by executing
    the instruction its trap stands in for, and say whether it did.  A
    no-op is "interpreted" by advancing the context pc, as a single step
    of it would; at a general breakpoint (Sec. 7.1's model) the original
    instruction is restored, single-stepped, and the trap replanted.
    Continue, source step and instruction step all start here. *)
let leave_breakpoint (tg : target) : bool =
  match tg.tg_state with
  | Stopped { signal; code = _; ctx_addr } -> (
      let pc = read_ctx_pc tg ctx_addr in
      Breakpoint.is_breakpoint_fault tg.tg_breaks ~signal ~pc
      &&
      match Hashtbl.find_opt tg.tg_breaks pc with
      | Some bp when bp.Breakpoint.bp_general ->
          Breakpoint.remove tg.tg_breaks tg.tg_wire ~addr:pc;
          (match single_step_exn tg with
          | Stopped _ ->
              ignore (Breakpoint.plant_general tg.tg_breaks tg.tg_tdesc tg.tg_wire ~addr:pc)
          | _ -> (* exited during the step: there is nothing to replant in *) ());
          true
      | _ ->
          write_ctx_pc tg ctx_addr (pc + tg.tg_tdesc.Target.nop_advance);
          tg.tg_state <- Stopped { signal = SIGTRAP; code = 1; ctx_addr };
          true)
  | Running | Exited _ | Detached -> false

(** Execute exactly one instruction: the one under a breakpoint's trap
    when stopped at one, else the next. *)
let step_instruction_exn (_d : t) (tg : target) : state =
  if not tg.tg_can_step then
    fail "target %s: this nub does not support single-stepping" tg.tg_name;
  if leave_breakpoint tg then tg.tg_state else single_step_exn tg

(** The environment a breakpoint condition evaluates in on the debugger
    side: registers from the stop context, loads through the wire
    abstract memory.  The nub builds the same environment over the saved
    context and target RAM, and both decode little-endian protocol
    values, so the two sites compute bit-identical results — the
    differential tests hold this equation down. *)
let cond_env (tg : target) (ctx_addr : int) : Ldb_nub.Bpcode.env =
  let td = tg.tg_tdesc in
  let fetch32 addr = A.fetch_i32 tg.tg_wire (A.absolute 'd' addr) in
  {
    Ldb_nub.Bpcode.rd_reg = (fun r -> fetch32 (ctx_addr + td.Target.ctx_reg_off r));
    rd_pc = (fun () -> fetch32 (ctx_addr + td.Target.ctx_pc_off));
    load =
      (fun ~space ~addr ~size ~signed ->
        let loc = A.absolute space addr in
        match
          match (size, signed) with
          | 1, false -> Int32.of_int (A.fetch_u8 tg.tg_wire loc)
          | 1, true -> Int32.of_int (A.fetch_i8 tg.tg_wire loc)
          | 2, false -> Int32.of_int (A.fetch_u16 tg.tg_wire loc)
          | 2, true -> Int32.of_int (A.fetch_i16 tg.tg_wire loc)
          | _ -> A.fetch_i32 tg.tg_wire loc
        with
        | v -> Ok v
        | exception A.Error m -> Error m
        | exception Transport.Error (_, m) -> Error m);
  }

(** Does a debugger-evaluated condition say this stop is a non-hit to
    resume past silently?  Evaluation faults stop conservatively. *)
let cond_suppresses (tg : target) ~signal ~ctx_addr : bool =
  let pc = read_ctx_pc tg ctx_addr in
  Breakpoint.is_breakpoint_fault tg.tg_breaks ~signal ~pc
  &&
  match Hashtbl.find_opt tg.tg_breaks pc with
  | Some { Breakpoint.bp_cond = Some ({ Breakpoint.c_site = `Debugger; _ } as c); _ }
    -> (
      match Ldb_nub.Bpcode.eval (cond_env tg ctx_addr) c.Breakpoint.c_prog with
      | Ok false ->
          c.Breakpoint.c_suppressed <- c.Breakpoint.c_suppressed + 1;
          true
      | Ok true | Error _ -> false)
  | _ -> false

(** Resume the target and wait for the next event, first leaving the
    breakpoint it is stopped at ({!leave_breakpoint}).

    A breakpoint whose condition is evaluated on the debugger side
    ([`Debugger], the fallback when the nub cannot run the bytecode)
    loops here: a false condition resumes the target without returning
    to the caller — correct stop semantics at one round trip per trap,
    which is exactly the cost the nub-side site eliminates. *)
let rec continue_exn (d : t) (tg : target) : state =
  (match tg.tg_state with
  | Stopped _ -> ignore (leave_breakpoint tg : bool)
  | Running -> ()
  | Exited n -> fail "target %s already exited with status %d" tg.tg_name n
  | Detached -> fail "target %s is detached" tg.tg_name);
  match tg.tg_state with
  | Exited _ -> tg.tg_state
  | _ -> (
      match run_rpc tg Proto.Continue with
      | Stopped { signal; code = _; ctx_addr } when cond_suppresses tg ~signal ~ctx_addr
        ->
          continue_exn d tg
      | st -> st)

let guard_dead (tg : target) (f : unit -> 'a) : ('a, dead) result =
  if is_postmortem tg then Error (`Dead_process (dead_msg tg))
  else try Ok (f ()) with Coredump.Dead_process m -> Error (`Dead_process m)

let continue_ (d : t) (tg : target) : (state, dead) result =
  guard_dead tg (fun () -> continue_exn d tg)

let step_instruction (d : t) (tg : target) : (state, dead) result =
  guard_dead tg (fun () -> step_instruction_exn d tg)

(** Unplant every breakpoint so the released target resumes (or dies)
    over its own instructions, not the debugger's traps.

    Releases happen on wires at their worst — a detach is often the
    response to a link going bad — so the restores are verified: after the
    unplant, any breakpoint whose trap bytes are still in target memory
    ({!Breakpoint.residual_traps}) has its original bytes re-stored, a
    bounded number of rounds.  A dead link ends the effort: the nub
    preserves target state, and a reattach's revalidation cleans up. *)
let unplant_for_release (tg : target) : unit =
  let rec scrub round =
    if round < 4 then
      match
        ignore (Breakpoint.suspend_all tg.tg_breaks tg.tg_wire : int);
        Breakpoint.residual_traps tg.tg_breaks tg.tg_wire
      with
      | [] -> ()
      | residuals ->
          List.iter
            (fun bp ->
              Breakpoint.store_bytes tg.tg_wire bp.Breakpoint.bp_addr
                bp.Breakpoint.bp_original)
            residuals;
          scrub (round + 1)
      | exception Transport.Error (Transport.Disconnected, _) -> ()
      | exception Transport.Error _ -> scrub (round + 1)
  in
  scrub 0

let kill (tg : target) =
  (match tg.tg_conn with
  | Postmortem _ -> ()
  | Live tr ->
      unplant_for_release tg;
      (* the going-down hook snapshots the core of a fatal stop before
         the Kill goes out *)
      Transport.shutdown tr Proto.Kill);
  tg.tg_state <- Exited 137

(** Break the connection, preserving target state in the nub. *)
let detach (tg : target) =
  (match tg.tg_conn with
  | Postmortem _ -> ()
  | Live tr ->
      unplant_for_release tg;
      Transport.shutdown ~disconnect:true tr Proto.Detach);
  tg.tg_state <- Detached

(* --- reattach and resync (debugger-crash survival, Sec. 4.2) -------------- *)

(** Reconnect a target whose link died — the debugger-crash-survival
    scenario, from this side: the nub preserved the target's state, and
    the debugger re-establishes everything it knew over a fresh channel.

    Replays [Hello] to re-learn the stop state (and re-check the
    architecture), re-reads the stop context address, and re-validates
    every planted breakpoint against target memory, replanting any whose
    trap bytes are gone.  The target's symbol tables, loader tables and
    wire memory survive untouched — they hang off the transport, which
    [Transport.reconnect] preserves. *)
let reattach (d : t) (tg : target) (chan : Chan.endpoint) : state =
  ignore d;
  let tr = transport tg in
  Transport.reconnect tr chan;
  let st =
    match Transport.rpc tr Proto.Hello with
    | Proto.Hello_reply { arch; state; can_step = _ } -> (
        match Arch.of_name arch with
        | Some a when Arch.equal a tg.tg_arch -> state_of_hello state
        | Some a ->
            fail "reattach: nub now reports %s but target %s runs %s" (Arch.name a)
              tg.tg_name (Arch.name tg.tg_arch)
        | None -> fail "reattach: nub reports unknown architecture %s" arch)
    | r -> fail "unexpected reply to Hello: %s" (Fmt.str "%a" Proto.pp_reply r)
  in
  tg.tg_state <- st;
  (* the nub preserved target memory, so planted traps should still be
     there — but verify rather than trust, and replant any that are not;
     breakpoints a detach unplanted come back too *)
  ignore (Breakpoint.revalidate tg.tg_breaks tg.tg_tdesc tg.tg_wire : int);
  ignore (Breakpoint.resume_suspended tg.tg_breaks tg.tg_tdesc tg.tg_wire : int);
  st

(* --- stopping points and breakpoints ----------------------------------------- *)

(** Object-code address of a stopping point: interpret its location
    procedure ({anchor idx LazyData}); results are memoized by the linker
    interface's anchor cache. *)
let stop_address (d : t) (tg : target) (s : Symtab.stop) : int =
  with_target d tg (fun () ->
      I.exec_value d.interp (V.cvx s.Symtab.stop_objloc);
      match (I.pop d.interp).V.v with
      | V.Loc (A.Absolute { offset; _ }) -> offset
      | V.Int n -> n
      | _ -> fail "stopping point location did not evaluate to a location")

(** Set a breakpoint at the entry to [funcname].  Demand-driven: only the
    unit defining the procedure is forced. *)
let break_function (d : t) (tg : target) (funcname : string) : int =
  if is_postmortem tg then fail "%s" (dead_msg tg);
  match with_target d tg (fun () -> Symtab.entry_stop tg.tg_symtab ~name:funcname) with
  | None -> fail "no procedure named %s" funcname
  | Some s ->
      let addr = stop_address d tg s in
      ignore
        (Breakpoint.plant tg.tg_breaks tg.tg_tdesc tg.tg_wire ~addr
           ~source:(Symtab.entry_name s.Symtab.stop_proc, s.Symtab.stop_line));
      addr

(** Set breakpoints at every stopping point on a source line (a single
    source location may correspond to more than one stopping point).  With
    [?file] only that unit is consulted — and forced. *)
let break_line ?file (d : t) (tg : target) ~(line : int) : int list =
  if is_postmortem tg then fail "%s" (dead_msg tg);
  let stops =
    with_target d tg (fun () -> Symtab.stops_at_line ?file tg.tg_symtab ~line)
  in
  if stops = [] then fail "no stopping point at line %d" line;
  List.map
    (fun s ->
      let addr = stop_address d tg s in
      ignore
        (Breakpoint.plant tg.tg_breaks tg.tg_tdesc tg.tg_wire ~addr
           ~source:(Symtab.entry_name s.Symtab.stop_proc, s.Symtab.stop_line));
      addr)
    stops

(* --- breakpoint conditions ------------------------------------------------ *)

(** Attach a compiled condition to the breakpoint at [addr], preferring
    the nub-side site: the bytecode is verified {e again} here — nothing
    the verifier rejects reaches the wire, whatever produced it — then
    shipped with [Set_cond].  A nub that refuses it (an old nub without
    the extension, or one whose own verification disagrees) demotes the
    condition to debugger-side evaluation, which needs no cooperation.
    Returns the site that ended up owning the condition. *)
let set_condition (_d : t) (tg : target) ~(addr : int) ~(text : string)
    (prog : Ldb_nub.Bpcode.prog) :
    (Breakpoint.cond_site, [ `Unverified of Ldb_nub.Bpverify.finding list ]) result =
  let bp =
    match Hashtbl.find_opt tg.tg_breaks addr with
    | Some bp -> bp
    | None -> fail "no breakpoint at %#x to attach a condition to" addr
  in
  match Ldb_nub.Bpverify.verify tg.tg_tdesc prog with
  | _ :: _ as findings -> Error (`Unverified findings)
  | [] ->
      let site =
        match tg.tg_conn with
        | Postmortem _ -> `Debugger
        | Live tr -> (
            match
              Transport.rpc tr (Proto.Set_cond { addr; prog = Ldb_nub.Bpcode.encode prog })
            with
            | Proto.Stored -> `Nub
            | Proto.Nub_error _ -> `Debugger
            | r -> fail "unexpected reply to Set_cond: %s" (Fmt.str "%a" Proto.pp_reply r)
            | exception Transport.Error _ -> `Debugger)
      in
      bp.Breakpoint.bp_cond <-
        Some { Breakpoint.c_text = text; c_prog = prog; c_site = site; c_suppressed = 0 };
      Ok site

(** Drop the condition on the breakpoint at [addr] (the breakpoint
    itself stays).  A nub-side condition is cleared in the nub too; a
    dead link only loses the RPC, and the nub clears its table on the
    next attach anyway. *)
let clear_condition (tg : target) ~(addr : int) : unit =
  match Hashtbl.find_opt tg.tg_breaks addr with
  | Some ({ Breakpoint.bp_cond = Some c; _ } as bp) ->
      bp.Breakpoint.bp_cond <- None;
      (match (c.Breakpoint.c_site, tg.tg_conn) with
      | `Nub, Live tr -> (
          match Transport.rpc tr (Proto.Clear_cond { addr }) with
          | _ -> ()
          | exception Transport.Error _ -> ())
      | _ -> ())
  | _ -> ()

let clear_breakpoint (tg : target) ~addr =
  clear_condition tg ~addr;
  Breakpoint.remove tg.tg_breaks tg.tg_wire ~addr

(* --- stack frames -------------------------------------------------------------- *)

let proc_entry_at (d : t) (tg : target) ~pc : V.t option =
  (* the loader's proctable maps the pc to a linker label without touching
     the symbol table; only the unit defining that label is then forced *)
  match Linkerif.proc_of_pc tg.tg_linkerif ~pc with
  | None -> None
  | Some (_, label) ->
      with_target d tg (fun () -> Symtab.proc_by_label tg.tg_symtab label)

let proc_info_of_entry (e : V.t) : Frame.proc_info =
  let d = V.to_dict e in
  let geti k default = match V.dict_get d k with Some v -> V.to_int v | None -> default in
  let saved =
    match V.dict_get d "savedregs" with
    | Some arr ->
        Array.to_list (V.to_arr arr)
        |> List.map (fun pair ->
               let a = V.to_arr pair in
               (V.to_int a.(0), V.to_int a.(1)))
    | None -> []
  in
  { Frame.pi_frame_size = geti "framesize" 0; pi_ra_offset = geti "raoffset" (-4);
    pi_saved_regs = saved }

let make_query (d : t) (tg : target) : Frame.query =
  {
    Frame.q_target = tg.tg_tdesc;
    q_wire = tg.tg_wire;
    q_frame_size = (fun ~pc -> Linkerif.frame_size tg.tg_linkerif ~pc);
    q_proc_info =
      (fun ~pc -> Option.map proc_info_of_entry (proc_entry_at d tg ~pc));
    q_known_pc =
      (fun ~pc ->
        match Linkerif.proc_of_pc tg.tg_linkerif ~pc with
        | Some (_, label) -> label <> Ldb_link.Link.start_symbol && proc_entry_at d tg ~pc <> None
        | None -> false);
  }

(** The frame of the topmost activation; [Frame.fr_down] walks down. *)
let top_frame (d : t) (tg : target) : Frame.t =
  match tg.tg_state with
  | Stopped { ctx_addr; _ } -> (
      let q = make_query d tg in
      match tg.tg_arch with
      | Arch.Mips -> Frame_mips.top q ~ctx_addr
      | Arch.Sparc -> Frame_sparc.top q ~ctx_addr
      | Arch.M68k -> Frame_m68k.top q ~ctx_addr
      | Arch.Vax -> Frame_vax.top q ~ctx_addr)
  | _ -> fail "target %s is not stopped" tg.tg_name

(** The whole call stack, topmost first. *)
let backtrace (d : t) (tg : target) : Frame.t list =
  let rec go acc fr =
    let acc = fr :: acc in
    match fr.Frame.fr_down () with Some fr' -> go acc fr' | None -> List.rev acc
  in
  go [] (top_frame d tg)

(** The stopping point governing a frame: the loci entry whose address is
    nearest below the frame's pc (binary search over the symbol table's
    per-procedure pc index; the index is built on first use). *)
let stop_of_frame (d : t) (tg : target) (fr : Frame.t) : Symtab.stop option =
  match proc_entry_at d tg ~pc:fr.Frame.fr_pc with
  | None -> None
  | Some proc ->
      Symtab.stop_at_pc tg.tg_symtab ~addr_of:(stop_address d tg) proc
        ~pc:fr.Frame.fr_pc

(* --- variables -------------------------------------------------------------------- *)

(** Resolve [name] in the context of [frame] and return its symbol-table
    entry. *)
let resolve (d : t) (tg : target) (fr : Frame.t) (name : string) : V.t option =
  let stop = stop_of_frame d tg fr in
  (* locals and statics need no further forcing; extern misses may force
     the (hinted) unit defining the name *)
  with_target d tg (fun () -> Symtab.resolve tg.tg_symtab stop name)

(** Evaluate a symbol entry's /where in the context of a frame, yielding
    its location. *)
let location_of (d : t) (tg : target) (fr : Frame.t) (entry : V.t) : A.location =
  let dict = V.to_dict entry in
  match V.dict_get dict "where" with
  | None -> fail "symbol %s has no location" (Symtab.entry_name entry)
  | Some w -> (
      match w.V.v with
      | V.Loc l -> l (* register locations are computed when the table is read *)
      | V.Arr _ ->
          with_target d tg (fun () ->
              (* bind the frame context for FrameLoc *)
              let fdict = V.dict_create () in
              V.dict_put fdict "FrameBase" (V.int fr.Frame.fr_base);
              V.dict_put fdict "FrameMem" (V.mem fr.Frame.fr_mem);
              I.begin_dict d.interp fdict;
              Fun.protect ~finally:(fun () -> I.end_dict d.interp) (fun () ->
                  I.exec_value d.interp (V.cvx w);
                  match (I.pop d.interp).V.v with
                  | V.Loc l -> l
                  | _ -> fail "where procedure did not yield a location"))
      | _ -> fail "bad /where for %s" (Symtab.entry_name entry))

(** Compiler-proven validity of a symbol entry at the stopping point
    governing [fr] (see [Symtab.validity_at]).  [None] when the table has
    no ranges for the variable or the frame is between stops. *)
let validity_of (d : t) (tg : target) (fr : Frame.t) (entry : V.t) :
    Symtab.validity option =
  match stop_of_frame d tg fr with
  | None -> None
  | Some stop -> Symtab.validity_at entry ~stop_index:stop.Symtab.stop_index

(** [variable_validity d tg fr name] — the fact for a named variable, for
    tests and the differential harness. *)
let variable_validity (d : t) (tg : target) (fr : Frame.t) (name : string) :
    Symtab.validity option =
  match resolve d tg fr name with
  | None -> None
  | Some entry -> validity_of d tg fr entry

(** The declaration display of a symbol entry, e.g. "int i": the /decl
    template from its type dictionary with the name substituted. *)
let decl_display (entry : V.t) (name : string) : string =
  let decl =
    match V.dict_get (V.to_dict entry) "type" with
    | Some ty -> (
        match V.dict_get (V.to_dict ty) "decl" with
        | Some dv -> V.to_str dv
        | None -> "%s")
    | None -> "%s"
  in
  match String.index_opt decl '%' with
  | Some i when i + 1 < String.length decl && decl.[i + 1] = 's' ->
      String.sub decl 0 i ^ name ^ String.sub decl (i + 2) (String.length decl - i - 2)
  | _ -> decl ^ " " ^ name

(** Print a variable's value using the printing procedure from its type
    dictionary — the debugger knows nothing about C data layout.  When
    the compiler's validity ranges say no assignment can have reached
    this stopping point, the slot holds garbage: say so instead of
    printing it as if it were a value. *)
let print_value (d : t) (tg : target) (fr : Frame.t) (name : string) : string =
  match resolve d tg fr name with
  | None -> fail "%s is not visible here" name
  | Some entry when validity_of d tg fr entry = Some Symtab.Vuninit ->
      Printf.sprintf "<%s: uninitialized at this point>" (decl_display entry name)
  | Some entry ->
      let loc = location_of d tg fr entry in
      let tdict =
        match V.dict_get (V.to_dict entry) "type" with
        | Some ty -> ty
        | None -> fail "symbol %s has no type" name
      in
      with_target d tg (fun () ->
          ignore (I.take_output d.interp);
          I.push d.interp (V.mem fr.Frame.fr_mem);
          I.push d.interp (V.loc loc);
          I.push d.interp tdict;
          I.run_string d.interp "print";
          I.take_output d.interp)

(** A variable's absolute target-memory range — space, address, byte
    size — for watch-style queries ("run back to the last write of x").
    [Error] for register-located symbols: registers are renamed and
    spilled freely, so "the last write" of a register cell is not a
    meaningful question to ask of a memory trace. *)
let variable_range (d : t) (tg : target) (fr : Frame.t) (name : string) :
    (char * int * int, string) result =
  match resolve d tg fr name with
  | None -> Error (Printf.sprintf "%s is not visible here" name)
  | Some entry -> (
      let size =
        match V.dict_get (V.to_dict entry) "type" with
        | Some ty -> (
            match V.dict_get (V.to_dict ty) "size" with
            | Some s -> V.to_int s
            | None -> 4)
        | None -> 4
      in
      match location_of d tg fr entry with
      | A.Absolute { space; offset } -> Ok (space, offset, size)
      | A.Immediate _ ->
          Error (Printf.sprintf "%s lives in a register, not memory" name))

(** Fetch a scalar variable as an integer (tests and assignments). *)
let read_int_var (d : t) (tg : target) (fr : Frame.t) (name : string) : int =
  match resolve d tg fr name with
  | None -> fail "%s is not visible here" name
  | Some entry ->
      let loc = location_of d tg fr entry in
      Int32.to_int (A.fetch_i32 fr.Frame.fr_mem loc)

(** Assign to a scalar variable (direct form; full expressions go through
    the expression server).  On a post-mortem target the store comes back
    as a typed [`Dead_process] error: the dump is read-only evidence. *)
let assign_int (d : t) (tg : target) (fr : Frame.t) (name : string) (v : int) :
    (unit, dead) result =
  try
    match resolve d tg fr name with
    | None -> fail "%s is not visible here" name
    | Some entry ->
        let loc = location_of d tg fr entry in
        Ok (A.store_i32 fr.Frame.fr_mem loc (Int32.of_int v))
  with Coredump.Dead_process m -> Error (`Dead_process m)

let assign_float (d : t) (tg : target) (fr : Frame.t) (name : string) (v : float) :
    (unit, dead) result =
  try
    match resolve d tg fr name with
    | None -> fail "%s is not visible here" name
    | Some entry ->
        let loc = location_of d tg fr entry in
        let size =
          match V.dict_get (V.to_dict entry) "type" with
          | Some ty -> (
              match V.dict_get (V.to_dict ty) "size" with Some s -> V.to_int s | None -> 8)
          | None -> 8
        in
        Ok (A.store_float fr.Frame.fr_mem loc ~size v)
  with Coredump.Dead_process m -> Error (`Dead_process m)

(** Name of the procedure a frame is stopped in. *)
let frame_function (d : t) (tg : target) (fr : Frame.t) : string =
  match proc_entry_at d tg ~pc:fr.Frame.fr_pc with
  | Some e -> Symtab.entry_name e
  | None -> (
      match Linkerif.proc_of_pc tg.tg_linkerif ~pc:fr.Frame.fr_pc with
      | Some (_, label) -> label
      | None -> Printf.sprintf "%#x" fr.Frame.fr_pc)

(** One-line description of the current stop. *)
let where (d : t) (tg : target) : string =
  match tg.tg_state with
  | Stopped { signal; _ } ->
      let fr = top_frame d tg in
      let line =
        match stop_of_frame d tg fr with
        | Some s -> Printf.sprintf " line %d" s.Symtab.stop_line
        | None -> ""
      in
      Printf.sprintf "%s in %s%s (pc=%#x)" (Signal.name signal) (frame_function d tg fr)
        line fr.Frame.fr_pc
  | Running -> "running"
  | Exited n -> Printf.sprintf "exited with status %d" n
  | Detached -> "detached"

(* --- breakpoints over arbitrary instructions (Sec. 7.1) ------------------- *)

(** Plant a breakpoint over any instruction (not just a stopping-point
    no-op).  Requires the nub's single-step extension for resumption, so
    this refuses when the extension is absent — ldb keeps functioning with
    the no-op scheme either way, as the paper prescribes for protocol
    extensions. *)
let break_address (d : t) (tg : target) ~(addr : int) : unit =
  ignore d;
  if is_postmortem tg then fail "%s" (dead_msg tg);
  if not tg.tg_can_step then
    fail "target %s: general breakpoints need the nub's single-step extension" tg.tg_name;
  ignore (Breakpoint.plant_general tg.tg_breaks tg.tg_tdesc tg.tg_wire ~addr)

(* --- source-level single stepping (Sec. 7.1) ------------------------------- *)

(** Addresses of every stopping point in the procedure containing [pc]
    (memoized by the pc index — this is the single-step loop's hot path). *)
let stop_addresses (d : t) (tg : target) ~pc : int list =
  match proc_entry_at d tg ~pc with
  | None -> []
  | Some proc -> Symtab.stop_addresses tg.tg_symtab ~addr_of:(stop_address d tg) proc

(** Step to the next stopping point: single-step instructions until the pc
    lands on a stopping point different from the current one (entering
    callees counts — their entry point is a stopping point).  Returns the
    resulting state; gives up after [limit] instructions. *)
let step_source_exn ?(limit = 200_000) (d : t) (tg : target) : state =
  (match tg.tg_state with
  | Stopped _ -> ignore (leave_breakpoint tg : bool)
  | _ -> fail "target %s is not stopped" tg.tg_name);
  match tg.tg_state with
  | Stopped { ctx_addr; _ } ->
      let start_pc = read_ctx_pc tg ctx_addr in
      let rec go n =
        if n >= limit then fail "step: no stopping point within %d instructions" limit
        else
          match single_step_exn tg with
          | Stopped { signal = SIGTRAP; code = 1; ctx_addr } -> (
              let pc = read_ctx_pc tg ctx_addr in
              if pc <> start_pc && List.mem pc (stop_addresses d tg ~pc) then tg.tg_state
              else go (n + 1))
          | st -> st (* exit, fault, or a planted breakpoint: report it *)
      in
      go 0
  | st -> st (* the instruction under a general breakpoint ended the program *)

let step_source ?limit (d : t) (tg : target) : (state, dead) result =
  guard_dead tg (fun () -> step_source_exn ?limit d tg)

(* --- disassembly ------------------------------------------------------------ *)

(** Disassemble [count] instructions at [addr] through the wire; planted
    breakpoints show up as the trap instructions they are, and addresses
    that are source-level stopping points are marked (from the pc index of
    the procedure containing [addr], forced on demand). *)
let disassemble (d : t) (tg : target) ~(addr : int) ~(count : int) : Disas.line list =
  let stops =
    match proc_entry_at d tg ~pc:addr with
    | None -> []
    | Some proc -> Symtab.stop_addresses tg.tg_symtab ~addr_of:(stop_address d tg) proc
  in
  Disas.window tg.tg_tdesc tg.tg_wire ~addr ~count
    ~stop_at:(fun a -> List.mem a stops)
    ~proc_of:(fun pc -> Linkerif.proc_of_pc tg.tg_linkerif ~pc)

(* --- post-mortem debugging ---------------------------------------------------- *)

(** The target's core dump.  On a live target this pulls the dump across
    the wire (the nub serializes the current stop on demand, and keeps
    serving the dump its target's death left behind even after an exit);
    on a post-mortem target it is simply the dump the session opened.
    The fetched core is cached on the target until it next runs or is
    written. *)
let fetch_core (tg : target) : Core.t =
  match tg.tg_conn with
  | Postmortem cd -> Coredump.core cd
  | Live tr -> (
      match tg.tg_core with
      | Some co -> co
      | None -> (
          match Core.of_string (fetch_core_raw tr) with
          | Ok (co, _) ->
              tg.tg_core <- Some co;
              co
          | Error m -> fail "nub sent an unreadable core: %s" m))

(** The serialized dump, for writing to a file. *)
let core_bytes (tg : target) : string = Core.to_string (fetch_core tg)

(* --- record/replay ------------------------------------------------------------- *)

(** Ask the nub to start recording an execution trace at the current
    stop, checkpointing roughly every [spacing] instructions.  History
    begins here: a previous recording on this nub is discarded. *)
let start_record (tg : target) ~(spacing : int) : unit =
  if spacing < 1 then fail "checkpoint spacing must be positive";
  match Transport.rpc (transport tg) (Proto.Record { spacing }) with
  | Proto.Stored -> ()
  | Proto.Nub_error m -> fail "cannot record: %s" m
  | r -> fail "unexpected reply to Record: %s" (Fmt.str "%a" Proto.pp_reply r)

(** Pull the whole serialized execution trace across the wire in
    {!Proto.max_trace_chunk}-sized windows, like {!fetch_core_raw}. *)
let fetch_trace_raw (tr : Transport.t) : string =
  let buf = Buffer.create 4096 in
  let rec go offset =
    match Transport.rpc tr (Proto.Fetch_trace { offset }) with
    | Proto.Trace_chunk { total; offset = off; chunk } ->
        if off <> offset then
          fail "trace transfer out of sync: wanted offset %d, nub sent %d" offset off;
        if String.length chunk = 0 && offset < total then
          fail "trace transfer stalled at offset %d of %d" offset total;
        Buffer.add_string buf chunk;
        let next = offset + String.length chunk in
        if next >= total then Buffer.contents buf else go next
    | Proto.Nub_error m -> fail "no trace: %s" m
    | r -> fail "unexpected reply to Fetch_trace: %s" (Fmt.str "%a" Proto.pp_reply r)
  in
  go 0

(** The serialized trace of the recording in progress on the target's
    nub, for writing to a file or opening a replay session. *)
let trace_bytes (tg : target) : string = fetch_trace_raw (transport tg)

(** Open a loaded core dump as a target: same symbol tables, loader
    tables, machine-dependent PostScript and operators as a live
    connection, but the wire abstract memory reads the dump.  The target
    is permanently stopped at the fault; run/step/store answer with
    typed [`Dead_process] errors. *)
let connect_core_with_image (d : t) ~(name : string) ~(image : image)
    ((core : Core.t), (warnings : Core.salvage list)) : target =
  let cd = Coredump.make (core, warnings) in
  let arch = core.Core.co_arch in
  if not (Arch.equal image.im_symtab.Symtab.arch arch) then
    fail "symbol table is for %s but the core was dumped on %s"
      (Arch.name image.im_symtab.Symtab.arch) (Arch.name arch);
  let wire = Coredump.memory cd in
  let li = Linkerif.make ~arch ~loader:image.im_loader ~wire in
  let signal =
    Option.value ~default:Signal.SIGINT (Signal.of_number core.Core.co_signal)
  in
  let tg =
    {
      tg_name = name;
      tg_arch = arch;
      tg_tdesc = Target.of_arch arch;
      tg_conn = Postmortem cd;
      tg_wire = wire;
      tg_defs = image.im_defs;
      tg_arch_dict = arch_dict_for d arch;
      tg_ops = make_target_ops d li;
      tg_symtab = image.im_symtab;
      tg_linkerif = li;
      tg_breaks = Breakpoint.create_table ();
      tg_can_step = false;
      tg_state =
        Stopped { signal; code = core.Core.co_code; ctx_addr = core.Core.co_ctx_addr };
      tg_core = Some core;
    }
  in
  check_anchors tg;
  d.targets <- tg :: d.targets;
  tg

let connect_core (d : t) ~(name : string) ~(loader_ps : string)
    (loaded : Core.t * Core.salvage list) : target =
  connect_core_with_image d ~name ~image:(load_image d ~loader_ps) loaded

(** Salvage warnings the dump earned at load time (truncations, CRC
    failures); empty on a live target. *)
let load_warnings (tg : target) : Core.salvage list =
  match tg.tg_conn with
  | Postmortem cd -> Coredump.load_warnings cd
  | Live _ -> []

(** Drain the damaged-read warnings the queries since the last call
    accumulated (post-mortem targets only): each string names a read that
    touched a truncated or CRC-damaged section, evidence that an answer
    derived from it may be tainted. *)
let take_salvage (tg : target) : string list =
  match tg.tg_conn with
  | Postmortem cd -> List.map Coredump.note_to_string (Coredump.take_notes cd)
  | Live _ -> []

(* --- crash reports -------------------------------------------------------------- *)

type frame_line = {
  fl_level : int;
  fl_pc : int;
  fl_func : string;
  fl_line : int option;
}

(** Why a crash report is less than whole. *)
type crash_note =
  | Dump_note of Core.salvage  (** the dump itself was damaged *)
  | Tainted of { what : string; detail : string }
      (** produced, but from questionable bytes or a partial walk *)
  | Missing of { what : string; reason : string }  (** could not be produced *)

let crash_note_to_string = function
  | Dump_note s -> "dump: " ^ Core.salvage_to_string s
  | Tainted { what; detail } -> Printf.sprintf "%s may be tainted: %s" what detail
  | Missing { what; reason } -> Printf.sprintf "%s unavailable: %s" what reason

type crash_report = {
  cr_target : string;
  cr_arch : Arch.t;
  cr_signal : Signal.t;
  cr_code : int;
  cr_pc : int;
  cr_regs : (string * int32) list;
  cr_frames : frame_line list;
  cr_locals : (string * string) list;
  cr_disas : string option;
  cr_notes : crash_note list;
}

let exn_text = function
  | Error m -> m
  | Transport.Error (_, m) -> m
  | A.Error m -> m
  | Coredump.Dead_process m -> m
  | Breakpoint.Error m -> m
  | e -> Printexc.to_string e

(** One-shot best-effort summary of a stopped (normally: dead) target:
    fault identity, registers, backtrace, the top frame's locals, and a
    disassembly window around the fault pc.  Every piece degrades
    independently — a corrupt data section costs the locals it covers,
    not the report — and [`Salvage] marks a report that carries warnings,
    [`Full] one that does not. *)
let crash_report (d : t) (tg : target) :
    [ `Full of crash_report | `Salvage of crash_report ] =
  let signal, code, ctx_addr =
    match tg.tg_state with
    | Stopped { signal; code; ctx_addr } -> (signal, code, ctx_addr)
    | _ -> fail "target %s is not stopped at a fault" tg.tg_name
  in
  let notes = ref [] in
  let note n = notes := n :: !notes in
  (match tg.tg_conn with
  | Postmortem cd ->
      List.iter (fun w -> note (Dump_note w)) (Coredump.load_warnings cd);
      (* reset the damaged-read log so the notes below are this report's *)
      ignore (Coredump.take_notes cd : Coredump.note list)
  | Live _ -> ());
  let pc =
    try read_ctx_pc tg ctx_addr
    with e ->
      note (Missing { what = "fault pc"; reason = exn_text e });
      0
  in
  let reg_name i =
    let names = tg.tg_tdesc.Target.reg_names in
    if i < Array.length names then names.(i) else Printf.sprintf "r%d" i
  in
  let regs =
    try
      match tg.tg_conn with
      | Postmortem cd ->
          let co = Coredump.core cd in
          Array.to_list (Array.mapi (fun i v -> (reg_name i, v)) co.Core.co_regs)
      | Live _ ->
          List.init (Target.nregs tg.tg_tdesc) (fun r ->
              ( reg_name r,
                A.fetch_i32 tg.tg_wire
                  (A.absolute 'd' (ctx_addr + tg.tg_tdesc.Target.ctx_reg_off r)) ))
    with e ->
      note (Missing { what = "registers"; reason = exn_text e });
      []
  in
  let frames = ref [] in
  let level = ref 0 in
  (try
     let rec walk fr =
       let func =
         try frame_function d tg fr
         with e ->
           note
             (Tainted
                { what = Printf.sprintf "frame #%d" !level; detail = exn_text e });
           Printf.sprintf "%#x" fr.Frame.fr_pc
       in
       let line =
         try Option.map (fun s -> s.Symtab.stop_line) (stop_of_frame d tg fr)
         with _ -> None
       in
       frames :=
         { fl_level = !level; fl_pc = fr.Frame.fr_pc; fl_func = func; fl_line = line }
         :: !frames;
       incr level;
       match fr.Frame.fr_down () with Some fr' -> walk fr' | None -> ()
     in
     walk (top_frame d tg)
   with e -> note (Tainted { what = "backtrace"; detail = exn_text e }));
  let frames = List.rev !frames in
  let locals =
    try
      let fr = top_frame d tg in
      match stop_of_frame d tg fr with
      | None ->
          note
            (Missing
               { what = "locals"; reason = "no stopping point covers the fault pc" });
          []
      | Some stop ->
          let rec scope_names (entry : V.t) acc =
            match entry.V.v with
            | V.Dict dd ->
                let acc =
                  match V.dict_get dd "name" with
                  | Some n -> (
                      match V.to_str n with
                      | nm when not (List.mem nm acc) -> nm :: acc
                      | _ | (exception _) -> acc)
                  | None -> acc
                in
                (match V.dict_get dd "uplink" with
                | Some up -> scope_names up acc
                | None -> acc)
            | _ -> acc
          in
          let names = List.rev (scope_names stop.Symtab.stop_scope []) in
          List.filter_map
            (fun nm ->
              match print_value d tg fr nm with
              | text -> Some (nm, String.trim text)
              | exception e ->
                  note (Missing { what = "local " ^ nm; reason = exn_text e });
                  None)
            names
    with e ->
      note (Missing { what = "locals"; reason = exn_text e });
      []
  in
  let disas =
    match disassemble d tg ~addr:pc ~count:6 with
    | lines -> Some (Disas.to_string lines)
    | exception e ->
        note (Missing { what = "disassembly"; reason = exn_text e });
        None
  in
  (match tg.tg_conn with
  | Postmortem cd ->
      List.iter
        (fun n ->
          note (Tainted { what = "memory"; detail = Coredump.note_to_string n }))
        (Coredump.take_notes cd)
  | Live _ -> ());
  let r =
    {
      cr_target = tg.tg_name;
      cr_arch = tg.tg_arch;
      cr_signal = signal;
      cr_code = code;
      cr_pc = pc;
      cr_regs = regs;
      cr_frames = frames;
      cr_locals = locals;
      cr_disas = disas;
      cr_notes = List.rev !notes;
    }
  in
  if r.cr_notes = [] then `Full r else `Salvage r

(** Render a crash report as the text the CLI prints. *)
let render_crash_report (r : crash_report) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "=== crash report: %s (%s) ===\n" r.cr_target (Arch.name r.cr_arch);
  pf "fault: %s (code %#x) at pc %#x\n" (Signal.name r.cr_signal) r.cr_code r.cr_pc;
  if r.cr_regs <> [] then begin
    pf "registers:\n";
    List.iteri
      (fun i (n, v) -> pf "  %-5s %08lx%s" n v (if i mod 4 = 3 then "\n" else ""))
      r.cr_regs;
    if List.length r.cr_regs mod 4 <> 0 then pf "\n"
  end;
  pf "backtrace:\n";
  if r.cr_frames = [] then pf "  (none recovered)\n"
  else
    List.iter
      (fun f ->
        pf "  #%d %s%s (pc=%#x)\n" f.fl_level f.fl_func
          (match f.fl_line with Some l -> Printf.sprintf " line %d" l | None -> "")
          f.fl_pc)
      r.cr_frames;
  if r.cr_locals <> [] then begin
    pf "locals (top frame):\n";
    List.iter (fun (n, v) -> pf "  %s = %s\n" n v) r.cr_locals
  end;
  (match r.cr_disas with
  | Some dis -> pf "disassembly at fault pc:\n%s\n" dis
  | None -> ());
  if r.cr_notes <> [] then begin
    pf "salvage warnings:\n";
    List.iter (fun n -> pf "  ! %s\n" (crash_note_to_string n)) r.cr_notes
  end;
  Buffer.contents b
