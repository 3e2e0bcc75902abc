(** The ldb REPL: a single-session, in-process client of a {!Server}
    that reads the one command language of {!Ldb_ldb.Command}, line by
    line, and prints each reply as a [-connect] client prints it. *)

open Ldb_ldb
module Eval = Ldb_exprserver.Eval

(** A debug server for [arch], with the expression server for [arch]
    compiling its breakpoint conditions.  The expression server lives a
    library above lib/ldb, so the compiler is injected here, where both
    are in scope. *)
let server ~arch =
  let sv = Server.create () in
  let esess = Eval.start ~arch in
  Server.set_cond_compiler sv (fun d tg ~addr cond ->
      Eval.compile_condition d tg esess ~addr cond);
  (sv, esess)

(** Does [c] act on the live process?  Such commands return the REPL
    from history to the present first. *)
let changes_present = function
  | Command.Server (Where | Backtrace | Print _ | Read_int _ | Fetch_core) -> false
  | Server _ | Break_if _ | Stepi | Set _ | Clear | Record _ -> true
  | _ -> false

let error_text = function
  | Eval.Error m | Ldb_exprserver.Exprserver.Error m -> m
  | e -> Ldb.exn_text e

(** The interactive loop, shared by live and post-mortem sessions: a
    single-session client of [sv].  A server command runs through
    {!Server.exec} on session [live], or on the history session of the
    trip into history under way, and prints as a [-connect] client
    prints it, without the [ok: ]/[refused: ] prefix.  The REPL's own
    commands work on that session's target.  [proc] is the simulated
    process of a live session; a post-mortem one has only the dump.
    Commands are read from [ic]. *)
let repl ?(ic = stdin) sv ~esess ~live ~(proc : Host.process option) =
  let d = Server.debugger sv in
  let say = print_endline in
  (* a trip into history: a replay over the live recording, and the one
     session its target is admitted as *)
  let replay = ref None and past = ref None in
  let current () = Option.value !past ~default:live in
  let target id =
    match Server.session sv id with
    | Some s -> s.Server.ss_tg
    | None -> raise (Ldb.Error (Server.refusal_to_string (Server.Session_closed id)))
  in
  let to_present ~quiet =
    if !replay <> None then begin
      Option.iter (Server.close_session sv) !past;
      past := None;
      replay := None;
      if not quiet then say "(back in the present)"
    end
  in
  let exec id c =
    let r = Server.exec sv id c in
    say (match r with Ok r -> Server.reply_to_string r | Error r -> Server.refusal_to_string r);
    r
  in
  (* open (or reuse) a replay session over the live recording; a fresh
     fetch each trip into history picks up everything recorded since *)
  let history () =
    match (!replay, proc) with
    | Some rp, _ -> Ok rp
    | None, None -> Error "time travel needs a live recorded process"
    | None, Some p -> (
        let image = Server.image_for sv ~loader_ps:p.Host.hp_loader_ps in
        match Replay.of_string d ~name:"replay" ~image (Ldb.trace_bytes (target live)) with
        | Ok (rp, warns) ->
            List.iter
              (fun w -> say ("  ! salvage: " ^ Ldb_nub.Trace.salvage_to_string w))
              warns;
            replay := Some rp;
            Ok rp
        | Error e -> Error (Replay.error_to_string e))
  in
  (* a trip's first motion admits the replay's one target as the history
     session; later motions re-point that target and keep the session *)
  let reverse motion =
    match history () with
    | Error m -> say ("ldb: " ^ m)
    | Ok rp -> (
        match motion rp with
        | Error e -> say ("ldb: " ^ Replay.error_to_string e)
        | Ok tg -> (
            let admitted =
              match !past with
              | Some id -> Ok id
              | None -> Server.open_with sv ~name:"history" (fun () -> (rp.Replay.rp_image, tg))
            in
            match admitted with
            | Error r -> say (Server.refusal_to_string r)
            | Ok id ->
                past := Some id;
                Printf.printf "[%s]\n" (Replay.describe rp);
                ignore (exec id Where)))
  in
  let dead = function Ok _ -> () | Error (`Dead_process m) -> say ("ldb: " ^ m) in
  let local tg = function
    | Command.Stepi -> dead (Result.map (fun _ -> say (Ldb.where d tg)) (Ldb.step_instruction d tg))
    | Eval e ->
        let v, ty = Eval.evaluate d tg (Ldb.top_frame d tg) esess e in
        Printf.printf "(%s) %s\n" ty v
    | Set { name; value } -> dead (Ldb.assign_int d tg (Ldb.top_frame d tg) name value)
    | Regs ->
        let fr = Ldb.top_frame d tg in
        let t = tg.Ldb.tg_tdesc in
        for r = 0 to Ldb_machine.Target.nregs t - 1 do
          Printf.printf "%4s=%08x%s"
            (Ldb_machine.Target.reg_name t r)
            (Frame.fetch_reg fr r)
            (if r mod 4 = 3 then "\n" else " ")
        done
    | Disas a ->
        let addr = match a with Some a -> a | None -> (Ldb.top_frame d tg).Frame.fr_pc in
        say (Disas.to_string (Ldb.disassemble d tg ~addr ~count:8))
    | Arch -> say (Ldb_machine.Arch.name tg.Ldb.tg_arch)
    | Info_breaks ->
        Hashtbl.fold (fun addr bp acc -> (addr, bp) :: acc) tg.Ldb.tg_breaks []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.iter (fun (addr, (bp : Breakpoint.t)) ->
               match bp.Breakpoint.bp_cond with
               | Some c ->
                   Printf.printf "breakpoint at %#x if %s (%s side, %d trap%s silently resumed)\n"
                     addr c.Breakpoint.c_text
                     (match c.Breakpoint.c_site with `Nub -> "nub" | `Debugger -> "debugger")
                     c.Breakpoint.c_suppressed
                     (if c.Breakpoint.c_suppressed = 1 then "" else "s")
               | None -> Printf.printf "breakpoint at %#x\n" addr)
    | Clear -> Breakpoint.remove_all tg.Ldb.tg_breaks tg.Ldb.tg_wire
    | Write_core path ->
        let bytes = Ldb.core_bytes tg in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
        Printf.printf "wrote %d-byte core to %s\n" (String.length bytes) path
    | Report -> (
        match Ldb.crash_report d tg with
        | `Full r -> print_string (Ldb.render_crash_report r)
        | `Salvage r ->
            print_string (Ldb.render_crash_report r);
            say "(report assembled in salvage mode)")
    | Record spacing ->
        Ldb.start_record tg ~spacing;
        Printf.printf "recording (checkpoint every %d instructions)\n" spacing
    | Rstep -> reverse Replay.rstep
    | Rcontinue -> reverse Replay.rcontinue
    | Rwatch name -> (
        match Ldb.variable_range d tg (Ldb.top_frame d tg) name with
        | Error m -> say ("ldb: " ^ m)
        | Ok (_space, addr, size) ->
            Printf.printf "running back to the last write of %s (%d byte%s at %#x)\n" name size
              (if size = 1 then "" else "s")
              addr;
            reverse (fun rp -> Result.map fst (Replay.run_back_to_write rp ~addr ~size)))
    | Present ->
        to_present ~quiet:true;
        ignore (exec live Where)
    | Server _ | Break_if _ | Quit -> ()
  in
  let finished = ref false in
  while not !finished do
    Printf.printf "(ldb) %!";
    match In_channel.input_line ic with
    | None -> finished := true
    | Some line ->
        (* one tick per line: it renews the session's RPC budget and
           paces the heartbeats *)
        Server.tick sv;
        (match Command.parse line with
        | Error Command.Blank -> ()
        | Error e -> say ("ldb: " ^ Command.error_to_string e)
        | Ok c -> (
            if changes_present c then to_present ~quiet:false;
            let id = current () in
            match c with
            | Quit -> finished := true
            | Server cmd -> (
                (match exec id cmd with
                | Ok (Server.R_state (Ldb.Exited _)) ->
                    Option.iter
                      (fun p ->
                        let out = Host.output p in
                        if out <> "" then Printf.printf "--- program output ---\n%s" out)
                      proc
                | _ -> ());
                if cmd = Kill then finished := true)
            | Break_if { at; cond } -> (
                match exec id at with
                | Ok r ->
                    List.iter
                      (fun addr -> ignore (exec id (Condition { addr; cond })))
                      (Server.planted r)
                | Error _ -> ())
            | c -> ( try local (target id) c with e -> say ("ldb: " ^ error_text e))));
        (* post-mortem queries may have tolerated damaged bytes; surface
           the per-query warnings the way the answer itself was printed *)
        Option.iter
          (fun s ->
            List.iter (fun w -> say ("  ! salvage: " ^ w)) (Ldb.take_salvage s.Server.ss_tg))
          (Server.session sv (current ()))
  done

