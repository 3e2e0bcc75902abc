int g;

void poke(int x)
{
    g = g + x;
}

void fib(int n)
{
    static int a[20];
    int i;
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    for (i = 2; i < n; i++)
        a[i] = a[i-1] + a[i-2];
    for (i = 0; i < n; i++)
        printf("%d ", a[i]);
    printf("\n");
}

int main(void)
{
    int k;
    for (k = 1; k <= 3; k++)
        poke(k);
    fib(10);
    return 0;
}
