(** IR-level dataflow lint (the compiler half of dbgcheck's static story).

    Three checks over the [Ir.stmt]/[Ir.exp] of [Compile.translate], all
    instances of the [Dataflow] framework ([dbgcheck] runs them; the
    compiler does not):

    - {e definite assignment}: a read of a local that may happen before any
      write on some path (forward may-uninitialized analysis);
    - {e dead stores}: a store to a local whose value can never be read
      (backward liveness);
    - {e unreachable statements}: a stopping point the control-flow graph
      cannot reach — in this system that is a user-visible defect, because
      an unreachable stopping point is a place the user can set a
      breakpoint that will never be hit.

    Findings carry source positions taken from the stopping points the
    compiler plants before every statement, so they point at real
    file:line:col locations even though [Ir.exp] itself carries none.

    Only {e named} locals whose every occurrence is a direct frame load or
    store (or a register read/write, for [register] variables) are tracked;
    a local whose address escapes — aggregates manipulated by address,
    [&x], compiler temporaries — is left alone, which keeps the analysis
    free of false positives at the cost of missing escapees.  The tracked
    universe, escape analysis, and bit-mask transfer functions are shared
    with [Validity] through [Dataflow]. *)

type kind = Uninit_read | Dead_store | Unreachable

let kind_name = function
  | Uninit_read -> "uninit-read"
  | Dead_store -> "dead-store"
  | Unreachable -> "unreachable"

(** Every kind, in declaration order. *)
let kinds = [ Uninit_read; Dead_store; Unreachable ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) kinds

type finding = { kind : kind; file : string; line : int; col : int; msg : string }

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: %s: %s" f.file f.line f.col (kind_name f.kind) f.msg

let finding_to_json f =
  Printf.sprintf {|{"kind":"%s","file":"%s","line":%d,"col":%d,"msg":"%s"}|}
    (kind_name f.kind) (Ldb_util.Json.escape f.file) f.line f.col
    (Ldb_util.Json.escape f.msg)

(* --- the analysis ------------------------------------------------------------- *)

let check_func ~(file : string) (fi : Sema.func_ir) : finding list =
  match fi.Sema.fi_debug with
  | None -> []
  | Some fd ->
      let cfg = Dataflow.cfg_of_body fi.Sema.fi_body in
      let stmts = cfg.Dataflow.stmts in
      let n = Array.length stmts in
      if n = 0 then []
      else begin
        let findings = ref [] in
        let stop_pos = Hashtbl.create 16 in
        List.iter
          (fun (sp : Sym.stop_point) -> Hashtbl.replace stop_pos sp.Sym.sp_id sp.Sym.sp_pos)
          fd.Sym.fd_stops;
        let exit_stop_id =
          List.fold_left (fun m (sp : Sym.stop_point) -> max m sp.Sym.sp_id) (-1)
            fd.Sym.fd_stops
        in
        (* position of the nearest preceding stopping point, per statement *)
        let pos_at = Array.make n fd.Sym.fd_sym.Sym.spos in
        let cur = ref fd.Sym.fd_sym.Sym.spos in
        Array.iteri
          (fun i s ->
            (match s with
            | Ir.Sstop (id, _) -> (
                match Hashtbl.find_opt stop_pos id with Some p -> cur := p | None -> ())
            | _ -> ());
            pos_at.(i) <- !cur)
          stmts;
        let report kind i msg =
          let p = pos_at.(i) in
          findings := { kind; file; line = p.Lex.line; col = p.Lex.col; msg } :: !findings
        in
        let succs i = cfg.Dataflow.succ.(i) in

        (* reachability, and the unreachable-stopping-point check *)
        let reachable = Dataflow.reachable cfg in
        Array.iteri
          (fun i s ->
            match s with
            | Ir.Sstop (id, _) when (not reachable.(i)) && id <> exit_stop_id ->
                report Unreachable i
                  (Printf.sprintf
                     "stopping point in %s can never be reached (a breakpoint here would never hit)"
                     fi.Sema.fi_name)
            | _ -> ())
          stmts;

        (* tracked variable set *)
        let vars =
          List.map
            (fun (v, s) -> (v, s.Sym.sym_name))
            (Dataflow.tracked fi.Sema.fi_body fd)
        in
        let nvars = List.length vars in
        let var_index = Hashtbl.create 16 in
        List.iteri (fun i (v, _) -> Hashtbl.replace var_index v i) vars;
        let var_name i = snd (List.nth vars i) in
        let idx_of v = Hashtbl.find_opt var_index v in
        if nvars = 0 then List.rev !findings
        else begin
          let all_mask = (1 lsl nvars) - 1 in

          (* forward may-uninitialized: bit set = possibly uninitialized *)
          let in_state =
            Dataflow.solve_forward cfg Dataflow.may_mask ~entry:all_mask
              ~transfer:(fun _ stmt s -> Dataflow.uninit_transfer ~idx_of s stmt)
          in
          let reported = Hashtbl.create 16 in
          Array.iteri
            (fun i stmt ->
              match in_state.(i) with
              | None -> ()
              | Some s ->
                  ignore
                    (Dataflow.uninit_transfer ~idx_of
                       ~on_read:(fun v st ->
                         if st land (1 lsl v) <> 0 && not (Hashtbl.mem reported (i, v))
                         then begin
                           Hashtbl.replace reported (i, v) ();
                           report Uninit_read i
                             (Printf.sprintf "%s may be read before it is assigned"
                                (var_name v))
                         end)
                       s stmt))
            stmts;

          (* backward liveness: bit set = value may still be read *)
          let live_in = Dataflow.liveness cfg ~idx_of in
          Array.iteri
            (fun i stmt ->
              let gens, kills = Dataflow.genkill ~idx_of stmt in
              if in_state.(i) <> None && kills <> 0 then begin
                let out = List.fold_left (fun acc j -> acc lor live_in.(j)) 0 (succs i) in
                List.iteri
                  (fun v _ ->
                    if kills land (1 lsl v) <> 0 && out land (1 lsl v) = 0
                       && gens land (1 lsl v) = 0 then
                      report Dead_store i
                        (Printf.sprintf "value stored to %s is never read" (var_name v)))
                  vars
              end)
            stmts;
          List.rev !findings
        end
      end

let check_unit ~(file : string) (ui : Sema.unit_ir) : finding list =
  List.concat_map (fun fi -> check_func ~file fi) ui.Sema.ui_funcs
