(** The debuggee programs the workloads compile, and their models.

    Each program comes with an OCaml model of what the debugger must see
    at every stop — loop indices, frame names and depths, variable values,
    program output — so the benchmark checks every reply against values
    derived from the program text and the seed, never against the system
    under test. *)

(** The 1-based number of the first line of [src] that, without its
    indentation, starts with [prefix]. *)
let line_of (src : string) (prefix : string) : int =
  let rec go i = function
    | [] -> invalid_arg ("line_of: no line starts with " ^ prefix)
    | l :: rest ->
        let l = String.trim l in
        let n = String.length prefix in
        if String.length l >= n && String.sub l 0 n = prefix then i else go (i + 1) rest
  in
  go 1 (String.split_on_char '\n' src)

(* --- deep: eight units that recurse 22 frames deep ------------------------- *)

(** [d0 .. d7] live in one unit each and call the next unit's function, so
    a stop at the bottom has every unit on the stack. *)
module Deep = struct
  let units = 8
  let top = 21 (* d0 is entered with n = 21: 22 d-frames under main *)
  let modulus = 10007

  let unit_source ~rounds k =
    let next = (k + 1) mod units in
    let body =
      Printf.sprintf
        {|int d%d(int n, int acc);
int g%d;
int d%d(int n, int acc)
{
    int local;
    local = (acc * 3 + n) %% %d;
    g%d = local;
    if (n == 0)
        return local;
    return d%d(n - 1, local) + 1;
}
|}
        next k k modulus k next
    in
    if k > 0 then body
    else
      body
      ^ Printf.sprintf
          {|int main(void)
{
    int r;
    int total;
    total = 0;
    for (r = 0; r < %d; r++)
        total = (total + d0(%d, r)) %% %d;
    printf("%%d\n", total);
    return 0;
}
|}
          rounds top modulus

  let sources ~rounds =
    List.init units (fun k -> (Printf.sprintf "u%d.c" k, unit_source ~rounds k))

  (** [acc] and [local] of the call at depth [j] (0 = d0) in round [r]. *)
  let frame ~r ~j =
    let rec go j' acc =
      let local = ((acc * 3) + (top - j')) mod modulus in
      if j' = j then (acc, local) else go (j' + 1) local
    in
    go 0 r

  let n_at j = top - j

  let output ~rounds =
    let total = ref 0 in
    for r = 0 to rounds - 1 do
      let _, local = frame ~r ~j:top in
      total := (!total + local + top) mod modulus
    done;
    Printf.sprintf "%d\n" !total

  (** The next call of [d<k>] strictly after position [(r, j)], if the
      program makes one before it exits. *)
  let next_call ~rounds ~k (r, j) =
    let rec go r j =
      if r >= rounds then None
      else if j > top then go (r + 1) 0
      else if j mod units = k then Some (r, j)
      else go r (j + 1)
    in
    go r (j + 1)
end

(* --- loop: a hot loop with a conditional and two toggled breakpoints ------- *)

module Loop = struct
  let cond_every = 64

  (* [stage] is 4i + (line index) once each line has run, so one read of
     it names the iteration and the line a stop is at *)
  let source ~iters =
    Printf.sprintf
      {|int counter;
int poke;
int stage;
int data[16];
int main(void)
{
    int i;
    int x;
    x = 0;
    for (i = 0; i < %d; i++) {
        stage = i * 4 + 1;
        x = x + i;
        stage = i * 4 + 2;
        data[i %% 16] = x;
        stage = i * 4 + 3;
        counter = counter + 1;
    }
    printf("%%d %%d %%d\n", counter, x, poke);
    return 0;
}
|}
      iters

  let sources ~iters = [ ("loop.c", source ~iters) ]

  (** The three breakpoint lines, in execution order: line 0 carries the
      nub-side condition, lines 1 and 2 are toggled. *)
  let lines =
    let src = source ~iters:1 in
    [| line_of src "stage = i * 4 + 1;"; line_of src "x = x + i;"; line_of src "data[i" |]

  let condition = Printf.sprintf "i %% %d == 0" cond_every

  (** [stage] at a stop before line [l] of iteration [i]. *)
  let stage_at (i, l) = if l = 0 then (if i = 0 then 0 else (4 * i) - 1) else (4 * i) + l

  (** The next stop strictly after [(i, l)] given which lines are planted,
      or [None] when the program runs to exit. *)
  let next_stop ~iters ~(planted : bool array) (i, l) =
    let rec go i l =
      if i >= iters then None
      else if l > 2 then go (i + 1) 0
      else if planted.(l) && (l <> 0 || i mod cond_every = 0) then Some (i, l)
      else go i (l + 1)
    in
    go i (l + 1)

  let x_after n = n * (n - 1) / 2 (* x once [n] iterations have added i *)
  let output ~iters ~poke = Printf.sprintf "%d %d %d\n" iters (x_after iters) poke
end

(* --- travel: a recorded loop that time travel walks back through ----------- *)

module Travel = struct
  let inner = 8

  let source ~outer =
    Printf.sprintf
      {|int total;
int marker;
void bump(int k)
{
    total = total + k;
}
int main(void)
{
    int j;
    int i;
    for (j = 0; j < %d; j++) {
        for (i = 1; i <= %d; i++)
            bump(i + j);
        marker = j;
    }
    printf("%%d\n", total);
    return 0;
}
|}
      outer inner

  let sources ~outer = [ ("travel.c", source ~outer) ]
  let stop_line ~outer = line_of (source ~outer) "marker = j;"

  (** [total] at the stop of outer iteration [j] (before [marker = j]). *)
  let total_at j =
    let t = ref 0 in
    for j' = 0 to j do
      for i = 1 to inner do
        t := !t + i + j'
      done
    done;
    !t

  let output ~outer = Printf.sprintf "%d\n" (total_at (outer - 1))
end
