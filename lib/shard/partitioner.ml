type strategy = Replicate
