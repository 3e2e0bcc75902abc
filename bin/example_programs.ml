(** The example programs that [pslint -examples] and [dbgcheck -examples]
    compile for every target and check. *)

let sources : (string * string) list =
  [
    ( "fib.c",
      {|
void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i; for (i=2; i<n; i++) a[i] = a[i-1] + a[i-2]; }
    { int j; for (j=0; j<n; j++) printf("%d ", a[j]); }
    printf("\n");
}
int main(void) { fib(10); return 0; }
|}
    );
    ( "structs.c",
      {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; char tag; };
static struct rect r;
double scale(double f, int k) { return f * k + 0.5; }
char *name(void) { return "rect"; }
int main(void)
{
    struct point p;
    double d;
    p.x = 3; p.y = 4;
    r.lo = p;
    r.hi.x = 7; r.hi.y = 8;
    r.tag = 'r';
    d = scale(1.5, 2);
    printf("%d %d\n", r.hi.x - r.lo.x, r.hi.y - r.lo.y);
    return (int) d;
}
|}
    );
  ]
