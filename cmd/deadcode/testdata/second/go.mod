module fixture/second

go 1.22

require fixture v0.0.0

replace fixture => ../root
